//! The application-facing TreadMarks handle.
//!
//! Each simulated workstation's application thread owns one [`Tmk`],
//! mirroring the C API of the real system: `Tmk_malloc`, `Tmk_barrier`,
//! `Tmk_lock_acquire`/`release`, plus the semaphore and condition-variable
//! primitives this paper added for OpenMP, and `flush` (kept so the cost
//! argument of the paper's §3.2.4 can be measured).
//!
//! Every public operation is *metered*: host CPU burned by application
//! code since the previous operation is charged to the node's virtual
//! clock (scaled to the modeled machine) on entry, and the runtime's own
//! bookkeeping runs off the meter.

use crate::addr::{AllocTable, PageId};
use crate::metrics::{NodeMetrics, OpLat};
use crate::protocol::{Msg, Region};
use crate::state::{NodeState, SyncId};
use crate::stats::TmkOp;
use crate::tasks::{Taken, Task};
use crossbeam::channel::Receiver;
use crossbeam::utils::Backoff;
use now_net::Wire as _;
use now_net::{ComputeMeter, Delivered, Endpoint, ThreadLane, VirtualClock};
use now_trace::EventKind;
use parking_lot::Mutex;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Arc, Condvar, Mutex as StdMutex};
use std::thread::ThreadId;

/// A node-wide **re-entrant** gate serializing the DSM protocol across
/// the local application threads of one SMP workstation (one protocol
/// engine / NIC per node). Re-entrancy lets a thread that holds the gate
/// for a compound transaction (a whole critical section, a parked
/// condition wait) run its constituent shared-memory operations without
/// self-deadlock. Holding the gate across entire lock tenures is what
/// makes the two-level runtime deadlock-free: a node never holds a DSM
/// lock while a *sibling* blocks the gate on a remote acquire.
#[derive(Default)]
pub(crate) struct NodeGate {
    m: StdMutex<GateState>,
    cv: Condvar,
}

#[derive(Default)]
struct GateState {
    owner: Option<ThreadId>,
    depth: usize,
}

impl NodeGate {
    pub(crate) fn enter(&self) {
        let me = std::thread::current().id();
        let mut st = self.m.lock().unwrap_or_else(|e| e.into_inner());
        // The waiting discipline of the channels (DESIGN.md §3, "host
        // hand-offs"): yield and re-check before sleeping.
        let backoff = Backoff::new();
        while st.owner.is_some() && st.owner != Some(me) {
            st = backoff.snooze_or_wait(&self.m, &self.cv, st, None);
        }
        st.owner = Some(me);
        st.depth += 1;
    }

    pub(crate) fn exit(&self) {
        let mut st = self.m.lock().unwrap_or_else(|e| e.into_inner());
        debug_assert_eq!(
            st.owner,
            Some(std::thread::current().id()),
            "gate exit by non-owner"
        );
        st.depth -= 1;
        if st.depth == 0 {
            st.owner = None;
            self.cv.notify_one();
        }
    }
}

/// RAII hold of a node's operation gate across a compound protocol
/// transaction (see [`Tmk::node_transaction`]). Dropping releases the
/// hold — also on unwind. A no-op outside SMP mode.
pub struct NodeTransaction {
    gate: Option<Arc<NodeGate>>,
}

impl Drop for NodeTransaction {
    fn drop(&mut self) {
        if let Some(g) = &self.gate {
            g.exit();
        }
    }
}

/// RAII tenure of a [`NodeGate`] (panic-safe exit).
struct GateTenure<'g>(&'g NodeGate);

impl<'g> GateTenure<'g> {
    fn new(g: &'g NodeGate) -> Self {
        g.enter();
        GateTenure(g)
    }
}

impl Drop for GateTenure<'_> {
    fn drop(&mut self) {
        self.0.exit();
    }
}

/// Per-thread handle to the DSM system.
///
/// One per simulated workstation in the paper's configuration. In
/// SMP-cluster mode several application threads share one node's DSM
/// process: the primary handle calls [`Tmk::smp_enter`] and derives one
/// sibling handle per additional local thread with [`Tmk::smp_fork`]. All
/// handles of a node share pages, twins, diffs and protocol state —
/// intra-node accesses are message-free — while a node-wide operation
/// gate serializes protocol operations (one network interface) and each
/// thread's compute is metered onto its own [`ThreadLane`].
pub struct Tmk {
    pub(crate) id: usize,
    pub(crate) n: usize,
    pub(crate) ep: Endpoint<Msg>,
    pub(crate) clock: Arc<VirtualClock>,
    pub(crate) state: Arc<Mutex<NodeState>>,
    pub(crate) app_rx: Receiver<Delivered<Msg>>,
    pub(crate) meter: ComputeMeter,
    pub(crate) alloc: Arc<AllocTable>,
    pub(crate) in_region: bool,
    pub(crate) barrier_epoch: u32,
    /// SMP mode: serializes this node's DSM operations across its local
    /// application threads (`None` with one thread per node).
    pub(crate) gate: Option<Arc<NodeGate>>,
    /// SMP mode: this thread's virtual-time lane on the node clock.
    pub(crate) lane: Option<ThreadLane>,
    /// Trace track id of this thread on its node (0 = the node's primary
    /// application thread; [`Tmk::smp_fork`] siblings get 1, 2, …).
    pub(crate) lane_tid: u32,
    /// SMP mode: hands out sibling trace track ids ([`Tmk::smp_enter`]
    /// resets it per region, so sibling tracks are stable across jobs).
    pub(crate) lane_ctr: Option<Arc<AtomicU32>>,
    /// True for handles created by [`Tmk::smp_fork`] (never the node's
    /// region entry thread — those must not run node-level protocol
    /// operations like the DSM barrier).
    pub(crate) derived: bool,
    /// Cached [`crate::TmkConfig::smp_access_ns`].
    pub(crate) smp_access_ns: u64,
    /// Cached [`crate::TmkConfig::watchdog`]: host-time deadline on
    /// protocol reply waits (`None` = wait forever).
    pub(crate) watchdog: Option<std::time::Duration>,
    /// Cluster-wide diagnostic view for the watchdog dump (absent only
    /// in hand-built unit-test handles).
    pub(crate) diag: Option<Arc<crate::system::SystemDiag>>,
    /// This node's cluster-lifetime metrics block (always armed; shared
    /// with the node state and every SMP sibling handle).
    pub(crate) metrics: Arc<NodeMetrics>,
}

impl Tmk {
    /// This node's id (`Tmk_proc_id`): 0 is the master.
    #[inline]
    pub fn proc_id(&self) -> usize {
        self.id
    }

    /// Number of workstations (`Tmk_nprocs`).
    #[inline]
    pub fn nprocs(&self) -> usize {
        self.n
    }

    /// This thread's virtual clock value in nanoseconds (the node clock,
    /// or this thread's lane in SMP-cluster mode).
    pub fn now_ns(&mut self) -> u64 {
        self.metered(|s| s.thread_vt())
    }

    /// Yield the host CPU briefly (used by busy-wait loops such as the
    /// flush-based pipeline, so service threads can run on small hosts).
    pub fn spin_hint(&self) {
        std::thread::yield_now();
    }

    /// Charge outstanding compute, run `f` off the meter, restart.
    ///
    /// In SMP mode compute is charged to this thread's lane (plus the
    /// intra-node access cost) and `f` runs under the node's operation
    /// gate, serializing protocol work across the node's local threads.
    #[inline]
    pub(crate) fn metered<T>(&mut self, f: impl FnOnce(&mut Self) -> T) -> T {
        match &mut self.lane {
            Some(lane) => {
                self.meter.charge_lane(lane);
                lane.advance(self.smp_access_ns);
            }
            None => {
                self.meter.charge(&self.clock);
            }
        }
        let r = match self.gate.clone() {
            Some(g) => {
                let _node_op = GateTenure::new(&g);
                f(self)
            }
            None => f(self),
        };
        self.meter.restart();
        r
    }

    /// Charge outstanding compute, then run `f` on this thread's virtual
    /// time, off the meter and outside the node gate: a host-time wait
    /// that models no virtual time and performs no protocol operation.
    pub fn off_meter<T>(&mut self, f: impl FnOnce(u64) -> T) -> T {
        match &mut self.lane {
            Some(lane) => {
                self.meter.charge_lane(lane);
            }
            None => {
                self.meter.charge(&self.clock);
            }
        }
        let r = f(self.thread_vt());
        self.meter.restart();
        r
    }

    /// This thread's virtual frontier without metering (trace stamps
    /// only — reads the lane or node clock, never advances either).
    #[inline]
    fn thread_vt(&self) -> u64 {
        match &self.lane {
            Some(l) => l.now(),
            None => self.clock.now(),
        }
    }

    /// Whether `now-trace` event recording is armed on this cluster.
    #[inline]
    pub fn trace_on(&self) -> bool {
        self.ep.tracer().on()
    }

    /// This thread's current virtual frontier for trace stamps. Unmetered
    /// read; intended for runtime layers recording their own spans.
    #[inline]
    pub fn trace_now(&self) -> u64 {
        self.thread_vt()
    }

    /// Record a trace span on this thread's track with explicit
    /// endpoints. Bookkeeping only: reads no clock, advances nothing,
    /// sends no messages; a no-op when tracing is off.
    pub fn trace_span(&self, kind: EventKind, t0: u64, t1: u64, a: u64, b: u64) {
        self.ep.tracer().span(kind, self.lane_tid, t0, t1, a, b);
    }

    /// Record an instantaneous trace event at this thread's frontier.
    /// Bookkeeping only; a no-op when tracing is off.
    pub fn trace_instant(&self, kind: EventKind, a: u64, b: u64) {
        if self.ep.tracer().on() {
            self.ep
                .tracer()
                .instant(kind, self.lane_tid, self.thread_vt(), a, b);
        }
    }

    /// Time `f` as one occurrence of the blocking op `lat`: always record
    /// its latency (virtual and host) into the node's lifetime histograms,
    /// plus its trace span when tracing is armed. `now` reads the virtual
    /// frontier to stamp with (a lane parked inside [`Tmk::on_wire`] does
    /// not move, so sites there pass the node clock). Only *reads* clocks,
    /// so it cannot change virtual time, statistics, or traffic.
    #[inline]
    fn timed(
        &mut self,
        lat: OpLat,
        (a, b): (u64, u64),
        now: fn(&Self) -> u64,
        f: impl FnOnce(&mut Self),
    ) {
        let host0 = std::time::Instant::now();
        let t0 = now(self);
        f(self);
        let t1 = now(self);
        self.metrics.observe(
            lat,
            t1.saturating_sub(t0),
            host0.elapsed().as_nanos() as u64,
        );
        if self.ep.tracer().on() {
            self.ep
                .tracer()
                .span(lat.event(), self.lane_tid, t0, t1, a, b);
        }
    }

    /// Run a network-touching protocol operation under the usual
    /// meter/gate/wire brackets, [`Tmk::timed`] as `lat`.
    #[inline]
    fn traced_op(&mut self, lat: OpLat, a: u64, f: impl FnOnce(&mut Self)) {
        self.metered(|s| s.timed(lat, (a, 0), Self::thread_vt, |s| s.on_wire(f)));
    }

    /// Bracket a network-touching protocol segment: the node clock (which
    /// stamps messages) is raised to this thread's lane on entry, and the
    /// lane adopts the post-operation clock on exit. Pure intra-node work
    /// never calls this, so local threads genuinely overlap in virtual
    /// time and only NIC/protocol work serializes on the node clock.
    #[inline]
    pub(crate) fn on_wire<T>(&mut self, f: impl FnOnce(&mut Self) -> T) -> T {
        if let Some(l) = &self.lane {
            l.push_to_node();
        }
        let r = f(self);
        if let Some(l) = &mut self.lane {
            l.pull_from_node();
        }
        r
    }

    pub(crate) fn recv_reply(&self) -> Delivered<Msg> {
        let Some(limit) = self.watchdog else {
            return self
                .app_rx
                .recv()
                .expect("node service thread disconnected");
        };
        use crossbeam::channel::RecvTimeoutError;
        match self.app_rx.recv_timeout(limit) {
            Ok(d) => d,
            Err(RecvTimeoutError::Disconnected) => panic!("node service thread disconnected"),
            Err(RecvTimeoutError::Timeout) => self.watchdog_abort(limit),
        }
    }

    /// Wait for the next protocol reply and charge its arrival.
    fn reply(&self) -> Delivered<Msg> {
        let d = self.recv_reply();
        self.ep.charge_rx(&d);
        d
    }

    /// The protocol-wait watchdog fired: dump every node's channel/clock/
    /// protocol state (the evidence a lost-wakeup hang would otherwise
    /// destroy) and abort the run with a panic, which tears the cluster
    /// down through the usual worker-panic path.
    fn watchdog_abort(&self, limit: std::time::Duration) -> ! {
        eprintln!(
            "tmk watchdog: node {} waited > {limit:?} (host time) for a protocol reply \
             ({} message(s) pending in its app channel); per-node state:",
            self.id,
            self.app_rx.len(),
        );
        match &self.diag {
            Some(d) => eprint!("{}", d.render()),
            None => eprintln!("  <no cluster-wide diagnostics on this handle>"),
        }
        panic!(
            "tmk watchdog: node {} exceeded the {limit:?} protocol-reply deadline \
             (suspected lost wakeup; see the state dump on stderr)",
            self.id
        );
    }

    // ------------------------------------------------------------------
    // Fault handling
    // ------------------------------------------------------------------

    /// Bring `pids` up to date: fetch a post-GC full copy of each page
    /// whose base is stale, and the diffs of the unapplied write notices
    /// that no barrier, lock grant or earlier fault delivered, from the
    /// writers whose notices dominate them; apply them with the delivered
    /// ones, and make the pages readable. All requests of a round are in
    /// flight at once and each writer gets one per round for all the
    /// pages it is asked about, so a batch never sends more messages than
    /// faulting its pages one by one: at run time, the request
    /// aggregation the paper leaves to compiler/runtime integration. An
    /// application fault `subscribe`s its pages to barrier and lock
    /// updates and asks for siblings, the other invalid pages the named
    /// intervals wrote, whose diffs are held for their own faults; a GC
    /// validation does neither. The round is `NodeState`'s
    /// ([`NodeState::fault_request`], [`NodeState::on_fault_reply`]);
    /// this sends, waits and marks the trace.
    pub(crate) fn fault_pages(&mut self, pids: &[PageId], subscribe: bool) {
        let traced = (pids.len() as u64, 0);
        self.timed(OpLat::PageFault, traced, Self::thread_vt, |s| {
            s.on_wire(|s| {
                let (mut fault, mut sends) = s.state.lock().fault_request(pids, subscribe);
                loop {
                    for (dst, msg) in sends {
                        s.ep.send(dst, msg);
                    }
                    if fault.done() {
                        break;
                    }
                    let msg = s.reply().msg;
                    sends = s.state.lock().on_fault_reply(&mut fault, msg);
                }
                if s.ep.tracer().on() {
                    let (tr, t) = (s.ep.tracer(), s.clock.now());
                    // One per-page fault marker (b != 0) for each page
                    // that faulted, which the profile's hot-page table
                    // counts, and the diffs applied to each page.
                    for pid in fault.faulted() {
                        tr.instant(EventKind::PageFault, s.lane_tid, t, pid as u64, 1);
                    }
                    for &(pid, n) in &fault.applied {
                        tr.instant(EventKind::DiffApply, s.lane_tid, t, pid as u64, n as u64);
                    }
                }
            })
        });
    }

    // ------------------------------------------------------------------
    // Barrier
    // ------------------------------------------------------------------

    /// Global barrier (`Tmk_barrier`): arrival is a release, departure an
    /// acquire delivering every write notice this node has not seen.
    pub fn barrier(&mut self) {
        self.barrier_episode(false);
    }

    /// `Tmk_join`, the barrier that ends a parallel region. It is one-way
    /// for a slave: the arrival is sent and the join is over, as only the
    /// master runs until the next fork, which is the slave's departure
    /// ([`NodeState::fork_request`]). The master departs as at any
    /// barrier, with the gathered reduction partials.
    pub(crate) fn join(&mut self) {
        self.barrier_episode(true);
    }

    /// One barrier episode, a region's join with `join`. Its trace span
    /// carries the episode as `a` and `join` as `b`.
    fn barrier_episode(&mut self, join: bool) {
        debug_assert!(
            !self.derived,
            "DSM barrier from a non-representative SMP thread (use the \
             runtime's two-level barrier)"
        );
        let epoch = self.barrier_epoch;
        self.barrier_epoch += 1;
        let traced = (epoch as u64, join as u64);
        self.metered(|s| {
            s.timed(OpLat::Barrier, traced, Self::thread_vt, |s| {
                s.on_wire(|s| {
                    let (mgr, arrive) = s.state.lock().arrive_request(epoch, join);
                    s.ep.send(mgr, arrive);
                    if join && s.id != mgr {
                        return;
                    }
                    let d = s.reply();
                    let gc = s.state.lock().on_depart(epoch, d.src, d.msg);
                    if let Some(upto) = gc {
                        s.gc(epoch, &upto);
                    }
                })
            })
        });
    }

    /// Run the GC round that barrier `epoch` started with snapshot
    /// `upto`: at its departure, or for a join at the next fork. Stamped
    /// with the node clock: at a barrier this runs inside the wire
    /// bracket, where the thread's lane is parked.
    pub(crate) fn gc(&mut self, epoch: u32, upto: &crate::interval::VectorClock) {
        self.timed(
            OpLat::Gc,
            (epoch as u64, 0),
            |s| s.clock.now(),
            |s| s.run_gc(epoch, upto),
        );
    }

    /// Barrier-time diff garbage collection: validate the pages we own,
    /// report done, wait for everyone, then drop diffs/notices covered by
    /// the snapshot clock `upto` and re-base (see DESIGN.md §2).
    fn run_gc(&mut self, epoch: u32, upto: &crate::interval::VectorClock) {
        let owners = self.state.lock().compute_gc_owners(upto);
        let mine: Vec<PageId> = owners
            .iter()
            .filter(|&(_, &o)| o == self.id)
            .map(|(&p, _)| p)
            .collect();
        if !mine.is_empty() {
            self.fault_pages(&mine, false);
        }
        self.ep.send(0, Msg::GcDone { epoch });
        let d = self.reply();
        let Msg::GcComplete { epoch: done_epoch } = d.msg else {
            panic!("expected GcComplete, got {}", d.msg.kind())
        };
        debug_assert_eq!(done_epoch, epoch, "GC episode mismatch");
        self.state.lock().apply_gc_complete(&owners, upto);
    }

    // ------------------------------------------------------------------
    // Locks
    // ------------------------------------------------------------------

    /// Acquire mutex `lock` (`Tmk_lock_acquire`): request to the lock's
    /// statically assigned manager, which queues contended requests and
    /// grants them in virtual-request-time order with the write notices
    /// the requester lacks. A manager-local acquire costs no network
    /// messages (self-sends are free).
    pub fn lock_acquire(&mut self, lock: u32) {
        self.traced_op(OpLat::LockAcquire, lock as u64, |s| {
            let req = s.state.lock().wait_request(SyncId::Lock(lock));
            s.await_grant(SyncId::Lock(lock), req);
        });
    }

    /// Send `req` (a `LockAcq`, `SemaWait` or `CondWait`) to its manager,
    /// wait for the grant of `obj` and acquire it.
    fn await_grant(&mut self, obj: SyncId, (mgr, req): (usize, Msg)) {
        self.ep.send(mgr, req);
        let d = self.reply();
        self.state.lock().on_grant(obj, d.src, d.msg);
    }

    /// Release mutex `lock` (`Tmk_lock_release`): closes the interval and
    /// notifies the manager, which passes the lock (and our new write
    /// notices) to the earliest waiter.
    pub fn lock_release(&mut self, lock: u32) {
        self.traced_op(OpLat::LockRelease, lock as u64, |s| {
            let (mgr, req) = s.state.lock().signal_request(SyncId::Lock(lock), None);
            s.ep.send(mgr, req);
        });
    }

    /// Run `f` while holding `lock` (critical-section sugar).
    pub fn with_lock<T>(&mut self, lock: u32, f: impl FnOnce(&mut Self) -> T) -> T {
        self.lock_acquire(lock);
        let r = f(self);
        self.lock_release(lock);
        r
    }

    // ------------------------------------------------------------------
    // Semaphores (the paper's proposed directive, §3.2.3)
    // ------------------------------------------------------------------

    /// `sema_signal(S)`: release semantics; two messages (to the manager,
    /// plus its acknowledgment), independent of the node count.
    pub fn sema_signal(&mut self, sema: u32) {
        self.traced_op(OpLat::SemaSignal, sema as u64, |s| {
            let (mgr, req) = s.state.lock().signal_request(SyncId::Sema(sema), None);
            s.ep.send(mgr, req);
            let d = s.reply();
            let Msg::SemaAck { sema: acked } = d.msg else {
                panic!("expected SemaAck, got {}", d.msg.kind())
            };
            debug_assert_eq!(acked, sema, "semaphore ack mismatch");
        });
    }

    /// `sema_wait(S)`: acquire semantics; blocks (without busy-waiting)
    /// until a signal is available, then applies the consistency
    /// information the manager forwards.
    pub fn sema_wait(&mut self, sema: u32) {
        self.traced_op(OpLat::SemaWait, sema as u64, |s| {
            let req = s.state.lock().wait_request(SyncId::Sema(sema));
            s.await_grant(SyncId::Sema(sema), req);
        });
    }

    // ------------------------------------------------------------------
    // Condition variables (the paper's proposed directive, §3.2.3)
    // ------------------------------------------------------------------

    /// `cond_wait(cond)` under `lock`: atomically release the lock and
    /// block until signaled; re-acquires the lock before returning.
    pub fn cond_wait(&mut self, lock: u32, cond: u32) {
        self.traced_op(OpLat::CondWait, cond as u64, |s| {
            let req = s
                .state
                .lock()
                .signal_request(SyncId::Lock(lock), Some(cond));
            // Blocked until a signal re-queues us for the critical section.
            s.await_grant(SyncId::Lock(lock), req);
        });
    }

    /// `cond_signal(cond)` under `lock`: unblock one waiter (no effect if
    /// none — unlike a semaphore signal).
    pub fn cond_signal(&mut self, lock: u32, cond: u32) {
        self.cond_notify(lock, cond, false);
    }

    /// `cond_broadcast(cond)` under `lock`: unblock all waiters.
    pub fn cond_broadcast(&mut self, lock: u32, cond: u32) {
        self.cond_notify(lock, cond, true);
    }

    /// Move one waiter of `cond` (or, with `all`, every waiter) to the
    /// lock queue: one fire-and-forget message to the lock's manager.
    fn cond_notify(&mut self, lock: u32, cond: u32, all: bool) {
        self.metered(|s| {
            s.on_wire(|s| {
                let (mgr, req) = s.state.lock().notify_request(lock, cond, all);
                s.ep.send(mgr, req);
                if s.ep.tracer().on() {
                    s.ep.tracer().instant(
                        EventKind::CondSignal,
                        s.lane_tid,
                        s.clock.now(),
                        cond as u64,
                        all as u64, // b = 1 distinguishes a broadcast
                    );
                }
            })
        });
    }

    // ------------------------------------------------------------------
    // Task deques (the tasking runtime's work stealing, DESIGN.md §2i)
    // ------------------------------------------------------------------

    /// Run `f` on this node's state as a valid-page access runs: under
    /// one state lock, on the compute meter and outside the node gate,
    /// charging an SMP lane the intra-node access cost. No message.
    fn task_local<R>(&mut self, f: impl FnOnce(&mut NodeState) -> R) -> R {
        let r = f(&mut self.state.lock());
        self.lane_advance(self.smp_access_ns);
        r
    }

    /// Push `task`, a child of this node's `frame`, onto this node's
    /// deque of `scope` (`NodeState::task_push`): `None` when full, else
    /// whether the push found the deque hungry, so a sleeper must wake.
    pub fn task_push(&mut self, scope: u32, task: Task, frame: u32, cap: usize) -> Option<bool> {
        self.task_local(|st| st.task_push(scope, task, frame, cap))
    }

    /// Take the newest task of this node's deque of `scope`, or with
    /// `frame` the newest child of that frame; it never marks the deque.
    pub fn task_take(&mut self, scope: u32, frame: Option<u32>) -> Taken {
        self.task_local(|st| st.task_take(scope, frame))
    }

    /// Tasks queued in this node's deque of `scope`.
    pub fn task_backlog(&mut self, scope: u32) -> u64 {
        self.task_local(|st| st.task_backlog(scope))
    }

    /// Count a task this thread completed in `scope`, a child of frame
    /// `parent` = `(node, frame)`, and send the `TaskDone` of a join it
    /// was the last child for (`NodeState::task_complete`).
    pub fn task_complete(&mut self, scope: u32, parent: (usize, u32)) {
        let vt = self.off_meter(|vt| vt);
        if let Some((dst, done)) = self.task_local(|st| st.task_complete(scope, parent, vt)) {
            self.metered(|s| s.on_wire(|s| s.ep.send(dst, done)));
        }
    }

    /// `taskwait`'s join of this node's `frame` in `scope`: wait for the
    /// children local threads run, join each thief, and wait for the
    /// `TaskDone`s this node's service thread acquires; off the meter and
    /// outside the node gate, so a sibling can finish a child or answer a
    /// join. The thread then adopts the time the last child was done.
    pub fn task_join(&mut self, scope: u32, frame: u32) {
        let joins = self.task_await(|st| st.task_join(scope, frame));
        if !joins.is_empty() {
            self.metered(|s| s.on_wire(|s| joins.into_iter().for_each(|(k, m)| s.ep.send(k, m))));
        }
        let done_vt = self.task_await(|st| st.task_joined(frame));
        self.lane_raise(done_vt);
        if self.lane.is_none() {
            self.clock.raise_to(done_vt);
        }
    }

    /// Poll `f` on this node's state, off the meter and outside the node
    /// gate, until it answers, under the watchdog's deadline.
    fn task_await<T>(&mut self, mut f: impl FnMut(&mut NodeState) -> Option<T>) -> T {
        let (state, limit, t0) = (self.state.clone(), self.watchdog, std::time::Instant::now());
        let answer = self.off_meter(|_| loop {
            let answer = f(&mut state.lock());
            if answer.is_some() || limit.is_some_and(|limit| t0.elapsed() > limit) {
                return answer;
            }
            std::thread::yield_now();
        });
        answer.unwrap_or_else(|| self.watchdog_abort(limit.expect("a deadline")))
    }

    /// Steal the oldest task of the first of `victims`' deques of
    /// `scope` that holds one, by one chain of `StealReq`s, each victim
    /// with nothing marking its deque and forwarding it to the next, and
    /// one `StealRep`, acquired here: the victim that answered, and what
    /// its take found.
    pub fn steal(&mut self, victims: &[usize], scope: u32) -> (usize, Taken) {
        let mut answer = (victims[0], Taken::default());
        self.traced_op(OpLat::Steal, victims[0] as u64, |s| {
            let (dst, req) = s.state.lock().steal_request(victims, scope);
            s.ep.send(dst, req);
            let d = s.reply();
            answer = (d.src, s.state.lock().on_steal(d.src, d.msg));
        });
        answer
    }

    /// Park this node's idle task worker at node 0 until a push wakes it
    /// (`false`) or every node is parked and `scope` is over (`true`):
    /// one `TermIdle` and one `TermGo`, free when this is node 0.
    pub fn term_idle(&mut self, scope: u32) -> bool {
        let mut done = false;
        self.traced_op(OpLat::Park, scope as u64, |s| {
            s.ep.send(0, Msg::TermIdle { scope });
            let d = s.reply();
            let Msg::TermGo { done: over } = d.msg else {
                panic!("expected TermGo, got {}", d.msg.kind())
            };
            done = over;
        });
        self.count_op(TmkOp::Parks, 1);
        done
    }

    /// A push cleared a hungry flag in `scope`: ask node 0 to wake its
    /// oldest parked worker. One message, no reply.
    pub fn term_wake(&mut self, scope: u32) {
        self.metered(|s| s.on_wire(|s| s.ep.send(0, Msg::TermWake { scope })));
    }

    // ------------------------------------------------------------------
    // Flush (original OpenMP synchronization the paper replaces)
    // ------------------------------------------------------------------

    /// OpenMP `flush`: make all prior modifications visible to all
    /// threads. Costs 2(n−1) messages — the expense that motivates the
    /// paper's semaphore/condition-variable proposal.
    pub fn flush(&mut self) {
        self.traced_op(OpLat::Flush, 0, |s| s.flush_inner());
    }

    fn flush_inner(&mut self) {
        let notices = self.state.lock().flush_request();
        let expected = notices.len();
        for (peer, notice) in notices {
            self.ep.send(peer, notice);
        }
        for _ in 0..expected {
            let d = self.reply();
            let Msg::FlushAck = d.msg else {
                panic!("expected FlushAck, got {}", d.msg.kind())
            };
        }
    }

    // ------------------------------------------------------------------
    // Fork / join
    // ------------------------------------------------------------------

    /// `Tmk_fork` + run + `Tmk_join`: ship `f` to every slave, run it as
    /// thread 0 ourselves, and join at the implicit end-of-region barrier
    /// (`Tmk::join`).
    ///
    /// Each fork is a release of the master's sequential section and the
    /// slave's deferred departure from the last join, with that join's
    /// riders; a GC round the join started runs here, on every node,
    /// before the region (`NodeState::fork_request`).
    ///
    /// `payload_bytes` models the size of the copied-in (firstprivate)
    /// environment on the wire.
    pub fn parallel(&mut self, payload_bytes: usize, f: impl Fn(&mut Tmk) + Send + Sync + 'static) {
        assert_eq!(self.id, 0, "only the master forks parallel regions");
        assert!(!self.in_region, "nested parallel regions are not supported");
        let region = Region {
            f: Arc::new(f),
            payload_bytes: payload_bytes + self.state.lock().cfg.fork_payload_bytes,
        };
        self.metered(|s| {
            let (forks, gc) = s.state.lock().fork_request(&region);
            for (peer, fork) in forks {
                s.ep.send(peer, fork);
            }
            if s.ep.tracer().on() {
                s.ep.tracer().instant(
                    EventKind::Fork,
                    s.lane_tid,
                    s.clock.now(),
                    (s.n - 1) as u64,
                    0,
                );
            }
            if let Some(upto) = gc {
                s.gc(s.barrier_epoch - 1, &upto);
            }
        });
        self.in_region = true;
        (region.f)(self);
        self.in_region = false;
        self.join();
    }

    /// Whether this thread is currently inside a parallel region.
    pub fn in_parallel(&self) -> bool {
        self.in_region
    }

    // ------------------------------------------------------------------
    // SMP-cluster mode: several application threads per DSM process
    // ------------------------------------------------------------------

    /// Enter SMP mode on this node's primary handle: the calling thread
    /// becomes one of several local application threads sharing this DSM
    /// process. Installs the node-wide operation gate (shared with every
    /// [`Tmk::smp_fork`] sibling); from here until [`Tmk::smp_finish`],
    /// compute is metered onto this thread's own virtual-time lane and
    /// protocol operations serialize on the gate.
    pub fn smp_enter(&mut self) {
        assert!(self.lane.is_none(), "nested smp_enter");
        self.meter.charge(&self.clock);
        self.smp_access_ns = self.state.lock().cfg.smp_access_ns;
        self.lane = Some(ThreadLane::register(&self.clock));
        self.gate = Some(Arc::new(NodeGate::default()));
        self.lane_ctr = Some(Arc::new(AtomicU32::new(1)));
        self.meter.restart();
    }

    /// Hold the node's operation gate across a *compound* protocol
    /// transaction — a whole `lock_acquire … lock_release` tenure. The
    /// gate is re-entrant, so the constituent operations run normally;
    /// holding it for the full span keeps the two-level runtime
    /// deadlock-free (a sibling can never interleave its own blocking
    /// acquire while this node holds a DSM lock whose critical section
    /// still needs protocol operations). No-op outside SMP mode.
    ///
    /// The returned guard releases the hold on drop — including on
    /// unwind, so a panic inside a critical section frees the node's
    /// siblings instead of wedging them on the gate forever.
    pub fn node_transaction(&self) -> NodeTransaction {
        if let Some(g) = &self.gate {
            g.enter();
        }
        NodeTransaction {
            gate: self.gate.clone(),
        }
    }

    /// Derive a sibling handle for one additional local application
    /// thread of this node's DSM process. The sibling shares all protocol
    /// state (pages, twins, diffs, interval log — intra-node accesses are
    /// message-free) and the operation gate, with its own compute meter
    /// and virtual-time lane starting at the caller's frontier. Call
    /// [`Tmk::smp_enter`] first; the returned handle is moved to its
    /// thread, which must call [`Tmk::rearm_meter`] before running
    /// application code and [`Tmk::smp_finish`] after.
    pub fn smp_fork(&self) -> Tmk {
        let lane = self.lane.as_ref().expect("smp_fork before smp_enter").now();
        Tmk {
            id: self.id,
            n: self.n,
            ep: self.ep.clone(),
            clock: self.clock.clone(),
            state: self.state.clone(),
            app_rx: self.app_rx.clone(),
            meter: ComputeMeter::new(self.meter.scale()),
            alloc: self.alloc.clone(),
            in_region: true,
            barrier_epoch: self.barrier_epoch,
            gate: self.gate.clone(),
            lane: Some(ThreadLane::register_at(&self.clock, lane)),
            lane_tid: self
                .lane_ctr
                .as_ref()
                .map_or(0, |c| c.fetch_add(1, Ordering::Relaxed)),
            lane_ctr: self.lane_ctr.clone(),
            derived: true,
            smp_access_ns: self.smp_access_ns,
            watchdog: self.watchdog,
            diag: self.diag.clone(),
            metrics: self.metrics.clone(),
        }
    }

    /// Leave SMP mode: charge trailing compute to the lane and detach it.
    /// Returns this thread's final virtual frontier, which the caller
    /// folds into the node clock via [`Tmk::smp_absorb`] on the primary
    /// handle (the node cannot depart the region before its slowest
    /// thread).
    pub fn smp_finish(&mut self) -> u64 {
        let mut lane = self.lane.take().expect("smp_finish without smp_enter");
        self.meter.charge_lane(&mut lane);
        let vt = lane.now();
        self.gate = None;
        self.lane_ctr = None;
        self.meter.restart();
        vt
    }

    /// Primary handle only: raise the node clock to the team's final
    /// frontier (the slowest local thread) after all siblings finished.
    pub fn smp_absorb(&mut self, vt: u64) {
        assert!(!self.derived, "smp_absorb on a derived handle");
        self.clock.raise_to(vt);
    }

    /// Re-arm the compute meter on the calling thread. Required after a
    /// handle crosses threads (a [`Tmk::smp_fork`] sibling moved to its
    /// local thread): per-thread CPU clocks are not transferable.
    pub fn rearm_meter(&mut self) {
        self.meter.restart();
    }

    /// SMP mode: charge a modeled intra-node cost (local barrier, local
    /// lock) to this thread's lane. No-op with one thread per node.
    pub fn lane_advance(&mut self, ns: u64) {
        if let Some(l) = &mut self.lane {
            l.advance(ns);
        }
    }

    /// SMP mode: raise this thread's lane (local barrier departure:
    /// adopt the team's combined frontier). No-op with one thread per
    /// node.
    pub fn lane_raise(&mut self, vt: u64) {
        if let Some(l) = &mut self.lane {
            l.raise_to(vt);
        }
    }

    /// Whether this handle runs in SMP mode (a lane is attached).
    pub fn smp_active(&self) -> bool {
        self.lane.is_some()
    }

    /// Count a protocol event (for runtime layers built on top of the
    /// DSM — e.g. the OpenMP tasking scheduler — that surface their own
    /// event counters through [`crate::TmkStats`]): a relaxed add on the
    /// node's one counter for `op`. Bookkeeping only: runs off the compute
    /// meter, takes no lock and touches no protocol state.
    pub fn count_op(&mut self, op: TmkOp, n: u64) {
        self.metrics.op(op).add(n);
    }

    /// This node's lifetime metrics block (shared with the
    /// [`crate::MetricsRegistry`]; survives job-boundary resets).
    pub fn metrics(&self) -> &NodeMetrics {
        &self.metrics
    }

    /// `node`'s current effective speed under the configured
    /// heterogeneity model ([`now_net::ClusterLoad`]), sampled at this
    /// thread's virtual time. 1.0 on uniform clusters. Bookkeeping only
    /// (load-aware scheduling heuristics); runs off the meter and costs
    /// no messages — published load information, like published backlog.
    pub fn node_speed(&mut self, node: usize) -> f64 {
        let t = self.thread_vt();
        self.state.lock().cfg.net.load.effective_speed(node, t)
    }
}

//! System bring-up and the warm-cluster session: spawn the simulated
//! workstations once and run a *stream* of jobs on them.
//!
//! Mirrors TreadMarks process structure: all node threads are created at
//! startup; slaves block waiting for the next `Tmk_fork` from the master,
//! which runs each job's sequential sections. A [`System`] keeps the
//! whole cluster — host threads, network endpoints, DSM state — warm
//! between jobs: [`System::run_job`] executes one master function,
//! reports its exact per-job statistics, and resets every node's DSM
//! state (pages, twins, diffs, vector clocks, manager queues, the shared
//! allocation table and the virtual clocks) behind the job's final
//! quiescence point, so a following job starts from the
//! bit-identical state a freshly built system would have. [`run_system`]
//! remains as the one-job convenience wrapper.
//!
//! ## The job-boundary reset protocol
//!
//! After a job's master function returns, all application-level
//! operations have completed (every region ends in the join barrier, and
//! request/reply operations consume their replies), but *fire-and-forget*
//! protocol messages — lock releases, manager-bound notices — may still
//! sit in service inboxes. (The last join's riders and any GC round it
//! started wait for a fork that never comes; the reset drops them.)
//! Per-node inboxes are FIFO and every such message was enqueued
//! causally before the master finished, so:
//!
//! 1. the master sends [`Msg::ResetReq`] to every slave: routed to the
//!    worker loop, it executes after all earlier work items, and after
//!    the slave's service handled everything sent before it;
//! 2. each slave resets its node state, replies [`Msg::ResetDone`] and
//!    zeroes its clock;
//! 3. the master fences its *own* service thread with a self-addressed
//!    [`Msg::SyncReq`]/[`Msg::SyncAck`] round trip (its own releases are
//!    fire-and-forget too), then reads every node's op counters and the
//!    traffic counters, and resets its state, the shared allocation table
//!    and its clock.
//!
//! Protocol events are counted once, on each node's always-on
//! [`NodeMetrics`](crate::NodeMetrics) counters, and remote messages
//! once, on the network's [`NetMetrics`](now_net::NetMetrics); no reset
//! touches either. Once the n−1 `ResetDone` and the `SyncAck` are in, no
//! node will count again for the finished job (work items run in order
//! and service inboxes are FIFO), so the master's reading there is exact
//! and the job's [`TmkStats`] is that reading minus the previous
//! boundary's. The job's traffic is the reading taken *before* step 1
//! minus the previous boundary's, so it leaves out exactly the reset
//! round: `2(n−1)` control messages per job.

use crate::addr::AllocTable;
use crate::api::Tmk;
use crate::config::TmkConfig;
use crate::metrics::MetricsRegistry;
use crate::protocol::Msg;
use crate::service::{service_loop, ForkJob, WorkItem};
use crate::state::NodeState;
use crate::stats::TmkStats;
use crossbeam::channel::{unbounded, Receiver, Sender};
use now_net::{
    ComputeMeter, Delivered, Envelope, NetMetricsSnapshot, Network, TraceSink, Tracer,
    VirtualClock, Wire,
};
use now_trace::{EventKind, Trace};
use parking_lot::Mutex;
use std::any::Any;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::thread::{self, JoinHandle};

/// Everything a finished run (or job) reports.
#[derive(Debug)]
pub struct RunOutcome<R> {
    /// The master function's return value.
    pub result: R,
    /// The master's final virtual clock — the program's modeled run time.
    pub vt_ns: u64,
    /// Network traffic (messages/bytes, per node and per message kind).
    pub net: NetMetricsSnapshot,
    /// DSM protocol event counts summed over all nodes.
    pub dsm: TmkStats,
    /// The job's drained event trace, when [`TmkConfig::trace`] armed
    /// recording. Tracing never changes `result`/`vt_ns`/`net`/`dsm`.
    pub trace: Option<Trace>,
}

impl<R> RunOutcome<R> {
    /// Virtual run time in seconds.
    pub fn vt_seconds(&self) -> f64 {
        self.vt_ns as f64 / 1e9
    }
}

/// Error returned when a job is submitted to a [`System`] that has
/// already been torn down (a previous job panicked, or it was shut down).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SystemDown;

impl std::fmt::Display for SystemDown {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "the DSM system is no longer running")
    }
}

impl std::error::Error for SystemDown {}

/// Watchdog/diagnostic view of the whole cluster (shared by every node's
/// handle so a single stuck thread can report everyone's position).
pub(crate) struct SystemDiag {
    clocks: Vec<Arc<VirtualClock>>,
    states: Vec<Arc<Mutex<NodeState>>>,
    /// Each node's network inbox (drained by its service thread) and
    /// reply channel (drained by its application thread).
    inboxes: Vec<Receiver<Envelope<Msg>>>,
    app_rxs: Vec<Receiver<Delivered<Msg>>>,
    /// The trace sink, when tracing is armed: a watchdog abort then
    /// shows what each node was last *doing*, not just where it stands.
    sink: Option<Arc<TraceSink>>,
    /// Always-on lifetime metrics: a watchdog dump includes the cluster's
    /// aggregate counters (jobs, protocol ops, traffic) at abort time.
    metrics: Arc<MetricsRegistry>,
}

impl SystemDiag {
    /// How many trailing trace events per node a diagnostic dump shows.
    const DUMP_EVENTS: usize = 8;

    /// Render per-node channel/clock/protocol state without blocking:
    /// busy state mutexes are reported as such rather than waited on.
    pub(crate) fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut s = String::new();
        for (id, clock) in self.clocks.iter().enumerate() {
            let (inbox, app_rx) = (&self.inboxes[id], &self.app_rxs[id]);
            // Queued > 0 with parked > 0 that persists is a lost wake-up.
            let _ = write!(
                s,
                "  node {id}: vt={}ns cpu={}ns inbox{{queued={} parked={}}} \
                 app_rx{{queued={} parked={}}}",
                clock.now(),
                clock.cpu_now(),
                inbox.len(),
                inbox.parked(),
                app_rx.len(),
                app_rx.parked(),
            );
            match self.states[id].try_lock() {
                None => {
                    let _ = writeln!(s, " state=<locked (thread active in protocol)>");
                }
                Some(st) => {
                    let _ = writeln!(
                        s,
                        " pvc={:?} vc={:?} held_locks={:?} dirty={} mgr{{epoch={} arrivals={} gc_in_progress={} queued={}}}",
                        st.processed_vc.0,
                        st.vc.0,
                        st.held_locks,
                        st.dirty.len(),
                        st.mgr.barrier_epoch,
                        st.mgr.arrivals.len(),
                        st.mgr.gc_in_progress,
                        st.mgr.queues.values().map(|q| q.waiters.len()).sum::<usize>(),
                    );
                }
            }
            if let Some(sink) = &self.sink {
                for ev in sink.recent(id, Self::DUMP_EVENTS) {
                    let _ = writeln!(
                        s,
                        "    last: {:<13} lane={} vt=[{}..{}]ns a={} b={} {}",
                        ev.kind.name(),
                        ev.lane,
                        ev.t0,
                        ev.t1,
                        ev.a,
                        ev.b,
                        ev.tag,
                    );
                }
            }
        }
        for line in self.metrics.snapshot().render().lines() {
            let _ = writeln!(s, "  {line}");
        }
        s
    }
}

/// A boxed job for the master application thread.
type MasterJob = Box<dyn FnOnce(&mut Tmk) -> Box<dyn Any + Send> + Send>;

enum MasterCmd {
    Job(MasterJob),
}

enum MasterReply {
    Done(Box<RunOutcome<Box<dyn Any + Send>>>),
    Panicked(Box<dyn Any + Send>),
}

/// A warm DSM cluster: `cfg.nodes()` simulated workstations whose host
/// threads, network and DSM state persist across a stream of jobs.
///
/// Build once with [`System::build`], run any number of jobs with
/// [`System::run_job`] (each gets exact per-job statistics and a clean,
/// deterministic initial state), and tear down with [`System::shutdown`]
/// or by dropping.
pub struct System {
    nodes: usize,
    cmd_tx: Option<Sender<MasterCmd>>,
    reply_rx: Receiver<MasterReply>,
    master: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
    services: Vec<JoinHandle<()>>,
    dead: bool,
    metrics: Arc<MetricsRegistry>,
}

impl System {
    /// Build a DSM system of `cfg.nodes()` workstations and leave it
    /// idle, waiting for jobs.
    pub fn build(cfg: TmkConfig) -> System {
        let n = cfg.nodes();
        let alloc = AllocTable::new(cfg.page_shift());
        // Tracing (when armed) rides on the endpoints: every layer above
        // reaches the per-node rings through its endpoint's tracer.
        let sink = cfg.trace.map(|tc| TraceSink::new(n, tc));
        let eps = Network::build_with_trace::<Msg>(cfg.net.clone(), sink.clone());
        // Lifetime metrics: one registry for the whole session, fed by
        // relaxed atomics from every layer. Never reset between jobs.
        let metrics = Arc::new(MetricsRegistry::new(n, eps[0].traffic().clone()));
        let scale = cfg.net.compute_scale;
        let watchdog = cfg.watchdog;

        let mut states: Vec<Arc<Mutex<NodeState>>> = Vec::with_capacity(n);
        let mut service_handles = Vec::with_capacity(n);
        let mut tmks: Vec<Tmk> = Vec::with_capacity(n);
        let mut work_rxs: Vec<Receiver<WorkItem>> = Vec::with_capacity(n);
        let clocks: Vec<Arc<VirtualClock>> = eps.iter().map(|ep| ep.clock().clone()).collect();

        for (id, ep) in eps.iter().enumerate() {
            states.push(Arc::new(Mutex::new(NodeState::new(
                id,
                cfg.clone(),
                alloc.clone(),
                ep.clock().clone(),
                metrics.node(id).clone(),
            ))));
        }
        let (to_apps, app_rxs): (Vec<_>, Vec<_>) = (0..n).map(|_| unbounded()).unzip();
        let diag = Arc::new(SystemDiag {
            clocks,
            states: states.clone(),
            inboxes: eps.iter().map(|ep| ep.inbox().clone()).collect(),
            app_rxs: app_rxs.clone(),
            sink,
            metrics: metrics.clone(),
        });

        for (id, ((ep, to_app), app_rx)) in eps.into_iter().zip(to_apps).zip(app_rxs).enumerate() {
            let state = states[id].clone();
            let (work_tx, work_rx) = unbounded();
            {
                let (ep, state) = (ep.clone(), state.clone());
                service_handles.push(
                    thread::Builder::new()
                        .name(format!("tmk-svc-{id}"))
                        .spawn(move || service_loop(ep, state, to_app, work_tx))
                        .expect("spawn service thread"),
                );
            }
            tmks.push(Tmk {
                id,
                n,
                clock: ep.clock().clone(),
                ep,
                state,
                app_rx,
                meter: ComputeMeter::new(scale),
                alloc: alloc.clone(),
                in_region: false,
                barrier_epoch: 0,
                gate: None,
                lane: None,
                lane_tid: 0,
                lane_ctr: None,
                derived: false,
                smp_access_ns: 0,
                watchdog,
                diag: Some(diag.clone()),
                metrics: metrics.node(id).clone(),
            });
            work_rxs.push(work_rx);
        }

        // Slave application threads (nodes n-1 .. 1).
        let mut worker_handles = Vec::with_capacity(n - 1);
        let mut iter = tmks.into_iter();
        let master_tmk = iter.next().expect("at least one node");
        let mut work_iter = work_rxs.into_iter();
        let _master_work = work_iter.next();
        for (tmk, work_rx) in iter.zip(work_iter) {
            let id = tmk.proc_id();
            worker_handles.push(
                thread::Builder::new()
                    .name(format!("tmk-app-{id}"))
                    .spawn(move || {
                        // A panicking worker must not leave the rest of the
                        // cluster blocked on it forever: tear everything down
                        // (services forward Stop; blocked app threads see
                        // their reply channels close) before re-raising.
                        let ep = tmk.ep.clone();
                        let n = tmk.nprocs();
                        let r = catch_unwind(AssertUnwindSafe(move || worker_loop(tmk, work_rx)));
                        if let Err(e) = r {
                            for i in 0..n {
                                ep.send_service(i, Msg::Shutdown);
                            }
                            resume_unwind(e);
                        }
                    })
                    .expect("spawn worker thread"),
            );
        }

        // Master application thread: runs each job's sequential sections,
        // then the job-boundary reset round; broadcasts Shutdown on exit.
        let (cmd_tx, cmd_rx) = unbounded::<MasterCmd>();
        let (reply_tx, reply_rx) = unbounded::<MasterReply>();
        let registry = metrics.clone();
        let master_handle = thread::Builder::new()
            .name("tmk-app-0".into())
            .spawn(move || {
                let mut tmk = master_tmk;
                // The counter readings at the previous job boundary.
                let mut ops_seen = TmkStats::default();
                let mut net_seen = tmk.ep.traffic().snapshot();
                while let Ok(MasterCmd::Job(f)) = cmd_rx.recv() {
                    // The meter was created on the spawning thread (or ran
                    // through the previous job); re-arm it on this job.
                    tmk.meter.restart();
                    registry.jobs_in_flight.set(1);
                    let r = catch_unwind(AssertUnwindSafe(|| {
                        let result = f(&mut tmk);
                        tmk.meter.charge(&tmk.clock.clone());
                        let vt_ns = tmk.clock.now();
                        // The job's traffic is complete here (every message
                        // is recorded, on both sides, at send time, before
                        // its effects are observable): read it before the
                        // reset's own control messages.
                        let net = tmk.ep.traffic().snapshot().since(&net_seen);
                        let (dsm, trace) = job_boundary_reset(
                            &mut tmk,
                            vt_ns,
                            &registry,
                            &mut ops_seen,
                            &mut net_seen,
                        );
                        RunOutcome {
                            result,
                            vt_ns,
                            net,
                            dsm,
                            trace,
                        }
                    }));
                    registry.jobs_in_flight.set(0);
                    match r {
                        Ok(done) => {
                            let _ = reply_tx.send(MasterReply::Done(Box::new(done)));
                        }
                        Err(e) => {
                            registry.jobs_failed.inc();
                            for i in 0..tmk.nprocs() {
                                tmk.ep.send(i, Msg::Shutdown);
                            }
                            let _ = reply_tx.send(MasterReply::Panicked(e));
                            return;
                        }
                    }
                }
                // Command channel closed: graceful shutdown. Tear down every
                // node's service loop (which in turn stops the worker loops).
                for i in 0..tmk.nprocs() {
                    tmk.ep.send(i, Msg::Shutdown);
                }
            })
            .expect("spawn master thread");

        System {
            nodes: n,
            cmd_tx: Some(cmd_tx),
            reply_rx,
            master: Some(master_handle),
            workers: worker_handles,
            services: service_handles,
            dead: false,
            metrics,
        }
    }

    /// The session's always-on metrics registry: lifetime counters,
    /// latency histograms and traffic totals accumulated since
    /// [`System::build`]. Never reset by the job-boundary protocol — call
    /// [`MetricsRegistry::snapshot`] at any time, including while a job
    /// runs (recording is lock-free relaxed atomics).
    pub fn metrics(&self) -> &Arc<MetricsRegistry> {
        &self.metrics
    }

    /// Number of workstations in this system.
    pub fn nodes(&self) -> usize {
        self.nodes
    }

    /// Whether the system can still accept jobs.
    pub fn is_alive(&self) -> bool {
        !self.dead && self.cmd_tx.is_some()
    }

    /// Run one job: execute `master_fn` on node 0 (forked regions run on
    /// every node), report its result together with the job's exact
    /// virtual run time, traffic and protocol statistics, and reset the
    /// cluster for the next job.
    ///
    /// A panic inside the job propagates to the caller (preferring a
    /// worker's root-cause panic over the master's secondary failure) and
    /// leaves the system dead; later jobs return [`SystemDown`].
    pub fn run_job<R, F>(&mut self, master_fn: F) -> Result<RunOutcome<R>, SystemDown>
    where
        R: Send + 'static,
        F: FnOnce(&mut Tmk) -> R + Send + 'static,
    {
        if !self.is_alive() {
            return Err(SystemDown);
        }
        let job: MasterJob = Box::new(move |t| Box::new(master_fn(t)) as Box<dyn Any + Send>);
        if self
            .cmd_tx
            .as_ref()
            .expect("alive system has a command channel")
            .send(MasterCmd::Job(job))
            .is_err()
        {
            self.fail(None);
        }
        match self.reply_rx.recv() {
            Ok(MasterReply::Done(done)) => {
                let RunOutcome {
                    result,
                    vt_ns,
                    net,
                    dsm,
                    trace,
                } = *done;
                let result = *result
                    .downcast::<R>()
                    .expect("job reply carries the job's result type");
                Ok(RunOutcome {
                    result,
                    vt_ns,
                    net,
                    dsm,
                    trace,
                })
            }
            Ok(MasterReply::Panicked(payload)) => self.fail(Some(payload)),
            Err(_) => self.fail(None),
        }
    }

    /// Tear the dead system down and re-raise the root-cause panic:
    /// worker panics are preferred over the master's secondary failure
    /// (a worker death closes the channels the master blocks on).
    fn fail(&mut self, master_payload: Option<Box<dyn Any + Send>>) -> ! {
        self.dead = true;
        self.cmd_tx = None;
        let mut worker_panic = None;
        for h in self.workers.drain(..) {
            if let Err(e) = h.join() {
                worker_panic = Some(e);
            }
        }
        let master_payload = match self.master.take() {
            Some(m) => m.join().err().or(master_payload),
            None => master_payload,
        };
        let mut service_panic = None;
        for h in self.services.drain(..) {
            if let Err(e) = h.join() {
                service_panic = Some(e);
            }
        }
        match worker_panic.or(master_payload).or(service_panic) {
            Some(p) => resume_unwind(p),
            None => panic!("DSM system died without a panic payload"),
        }
    }

    /// Graceful teardown: stop the master loop, join every thread, and
    /// re-raise any panic a thread died with.
    pub fn shutdown(mut self) {
        self.teardown(true);
    }

    fn teardown(&mut self, propagate: bool) {
        if self.dead && self.master.is_none() {
            return;
        }
        self.dead = true;
        self.cmd_tx = None; // master loop exits and broadcasts Shutdown
        let master_result = self.master.take().map(|h| h.join()).unwrap_or(Ok(()));
        let mut worker_panic = None;
        for h in self.workers.drain(..) {
            if let Err(e) = h.join() {
                worker_panic = Some(e);
            }
        }
        let mut service_panic = None;
        for h in self.services.drain(..) {
            if let Err(e) = h.join() {
                service_panic = Some(e);
            }
        }
        if !propagate || thread::panicking() {
            return;
        }
        // Prefer reporting the root-cause worker panic over the master's
        // secondary "channel disconnected" failure; a service-thread
        // panic (a protocol invariant tripping) must surface too.
        if let Some(e) = worker_panic {
            resume_unwind(e);
        }
        if let Err(e) = master_result {
            resume_unwind(e);
        }
        if let Some(e) = service_panic {
            resume_unwind(e);
        }
    }
}

impl Drop for System {
    fn drop(&mut self) {
        self.teardown(false);
    }
}

/// The job-boundary reset round (see the module docs): returns the
/// cluster's protocol event counts since `ops_seen` plus the job's
/// drained event trace, when tracing is armed, advances `ops_seen` and
/// `net_seen` to this boundary's readings, and leaves the whole cluster
/// in the state a freshly built system would have.
fn job_boundary_reset(
    tmk: &mut Tmk,
    vt_ns: u64,
    registry: &MetricsRegistry,
    ops_seen: &mut TmkStats,
    net_seen: &mut NetMetricsSnapshot,
) -> (TmkStats, Option<Trace>) {
    let host0 = std::time::Instant::now();
    let n = tmk.nprocs();
    // Mark the job's end *before* the reset fan-out below records its own
    // control-message events, so the master lane's markers stay in
    // timestamp order (the reset round is stamped past `vt_ns` by design).
    if tmk.ep.tracer().on() {
        tmk.ep.tracer().instant(EventKind::JobEnd, 0, vt_ns, 0, 0);
    }
    for i in 1..n {
        tmk.ep.send(i, Msg::ResetReq);
    }
    // Fence our own service thread: our fire-and-forget releases (and any
    // manager work addressed to node 0) are handled before this ack comes
    // back, so the counter reading below cannot race them.
    tmk.ep.send(0, Msg::SyncReq);
    for _ in 0..n {
        // n-1 ResetDone + 1 SyncAck
        let d = tmk.recv_reply();
        assert!(
            matches!(d.msg, Msg::ResetDone | Msg::SyncAck),
            "expected ResetDone/SyncAck, got {}",
            d.msg.kind()
        );
    }
    let now = registry.op_totals();
    let dsm = now.since(ops_seen);
    *ops_seen = now;
    *net_seen = tmk.ep.traffic().snapshot();
    // Every node is quiescent (its reset events were recorded before its
    // ResetDone was sent), so the rings hold exactly the finished job:
    // drain them before anything below clears state for the next one.
    let trace = if tmk.ep.tracer().on() {
        let sink = tmk
            .ep
            .tracer()
            .sink()
            .expect("an armed tracer has a sink")
            .clone();
        let (events, dropped) = sink.drain();
        Some(Trace {
            nodes: n,
            threads_per_node: 1, // the SMP layer overrides on n × tpn runs
            total_ns: vt_ns,
            events,
            dropped,
        })
    } else {
        None
    };
    tmk.state.lock().reset();
    // Order matters for determinism: node states are all fresh, so the
    // shared allocation table can restart at address 0; the clock starts
    // the next job at t = 0.
    tmk.alloc.reset();
    tmk.clock.reset();
    tmk.barrier_epoch = 0;
    tmk.in_region = false;
    tmk.meter.restart();
    // Lifetime accounting (never reset): the finished job and the host
    // cost of this warm-reset round.
    registry.jobs_completed.inc();
    registry.job_vt_ns.record(vt_ns);
    registry
        .reset_host_ns
        .record(host0.elapsed().as_nanos() as u64);
    (dsm, trace)
}

/// Build a DSM system of `cfg.nodes()` workstations, run `master_fn` on
/// node 0, and tear everything down.
///
/// The master allocates shared memory, runs sequential sections, and
/// spawns parallel regions with [`Tmk::parallel`]; slave nodes execute the
/// shipped regions. Returns the result together with the virtual run time
/// and traffic statistics. One-job convenience wrapper around [`System`]
/// — a warm system amortizes this bring-up/tear-down over a job stream.
pub fn run_system<R, F>(cfg: TmkConfig, master_fn: F) -> RunOutcome<R>
where
    R: Send + 'static,
    F: FnOnce(&mut Tmk) -> R + Send + 'static,
{
    let mut sys = System::build(cfg);
    let out = sys
        .run_job(master_fn)
        .expect("a freshly built system accepts a job");
    sys.shutdown();
    out
}

/// Slave node main loop: run forked regions (and job-boundary resets)
/// until shutdown. A region ends in its one-way join (`Tmk::join`): the
/// next fork is this node's departure.
fn worker_loop(mut tmk: Tmk, work_rx: Receiver<WorkItem>) {
    tmk.meter.restart();
    let handler_ns = tmk.ep.cfg().handler_ns;
    let tracer: Tracer = tmk.ep.tracer().clone();
    loop {
        match work_rx.recv() {
            Err(_) | Ok(WorkItem::Stop) => break,
            Ok(WorkItem::Run(ForkJob {
                region,
                acq,
                gc,
                src,
                arrival_vt,
            })) => {
                if tracer.on() {
                    // The wait for this fork: a slave's explicit idle
                    // span, so its profile separates "parked between
                    // regions" from compute.
                    tracer.span(EventKind::Idle, 0, tmk.clock.now(), arrival_vt, 0, 0);
                }
                // Fork delivery: our departure from the last join, and an
                // acquire of the master's sequential updates.
                tmk.clock.raise_to(arrival_vt);
                tmk.clock.advance(handler_ns);
                let gc = tmk.state.lock().on_fork(src, acq, gc);
                if tracer.on() {
                    tracer.instant(EventKind::Fork, 0, tmk.clock.now(), src as u64, 0);
                }
                if let Some(upto) = gc {
                    // The last join's GC round, on every node at once.
                    tmk.gc(tmk.barrier_epoch - 1, &upto);
                }
                tmk.meter.restart();
                tmk.in_region = true;
                (region.f)(&mut tmk);
                tmk.in_region = false;
                // Tmk_join: send the arrival and wait for the next fork.
                tmk.join();
            }
            Ok(WorkItem::Reset) => {
                // Job boundary: everything this node will ever do for the
                // finished job is done (work items are processed in order
                // and the service inbox is FIFO), so once the master has
                // our ResetDone it can read this node's op counters.
                if tracer.on() {
                    // Recorded before the ResetDone send below, so the
                    // master's drain sees this node's full reset step.
                    tracer.instant(EventKind::Reset, 0, tmk.clock.now(), 0, 0);
                }
                tmk.state.lock().reset();
                tmk.ep.send(0, Msg::ResetDone);
                // Zero the clock *after* the send charged it: the next
                // job finds this node at t = 0, exactly like a cold start.
                tmk.clock.reset();
                tmk.barrier_epoch = 0;
                tmk.meter.restart();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(n: usize) -> TmkConfig {
        TmkConfig::fast_test(n)
    }

    #[test]
    fn single_node_runs_master_only() {
        let out = run_system(cfg(1), |tmk| {
            let v = tmk.malloc_vec::<u64>(10);
            tmk.write(&v, 3, 42);
            tmk.read(&v, 3)
        });
        assert_eq!(out.result, 42);
        assert_eq!(out.net.total_msgs(), 0, "single node never uses the wire");
    }

    #[test]
    fn partials_reach_the_master_in_node_order_across_an_interior_barrier() {
        let out = run_system(cfg(3), |t| {
            t.parallel(0, |t| {
                let me = t.proc_id() as u64;
                t.contribute(7, &[me, 10 + me]);
                // Site 7 rides this barrier; the master keeps it.
                t.barrier();
                t.contribute(9, &[me as f64 / 2.0]);
            });
            let sevens = t.take_partials::<u64>(7);
            (sevens, t.take_partials::<f64>(9), t.take_partials::<u64>(7))
        });
        let (sevens, nines, again) = out.result;
        assert_eq!(sevens, [[0, 10], [1, 11], [2, 12]]);
        assert_eq!(nines, [[0.0], [0.5], [1.0]]);
        assert!(again.is_empty(), "a take drains its site");
        // The partials add no message. Per slave: a fork, the interior
        // barrier's arrival and departure, and the join's arrival (the
        // one-way join departs the master alone): 2 × 4.
        assert_eq!(out.net.total_msgs(), 8);
    }

    #[test]
    fn diag_dump_shows_queues_and_parked_receivers() {
        let out = run_system(cfg(2), |tmk| {
            let diag = tmk.diag.clone().expect("system handles carry diagnostics");
            // With no traffic both service threads end up asleep on their
            // inboxes; this thread is awake, so its reply channel is not.
            let t0 = std::time::Instant::now();
            loop {
                let dump = diag.render();
                let idle = dump.matches("inbox{queued=0 parked=1}").count();
                if idle == 2 || t0.elapsed().as_secs() >= 5 {
                    return dump;
                }
                std::thread::yield_now();
            }
        });
        let node = |id: usize| {
            let head = format!("  node {id}: ");
            out.result
                .lines()
                .find(|l| l.starts_with(&head))
                .unwrap_or_else(|| panic!("no line for node {id} in:\n{}", out.result))
        };
        for id in 0..2 {
            assert!(
                node(id).contains("inbox{queued=0 parked=1}"),
                "{}",
                node(id)
            );
        }
        assert!(node(0).contains("app_rx{queued=0 parked=0}"), "{}", node(0));
    }

    #[test]
    fn parallel_region_runs_on_all_nodes() {
        let out = run_system(cfg(4), |tmk| {
            let v = tmk.malloc_vec::<u64>(4);
            tmk.parallel(0, move |t| {
                let me = t.proc_id() as u64;
                t.write(&v, t.proc_id(), me * 10);
            });
            tmk.read_slice(&v, 0..4)
        });
        assert_eq!(out.result, vec![0, 10, 20, 30]);
        assert!(out.dsm.forks >= 1);
        assert!(out.net.total_msgs() > 0);
    }

    #[test]
    fn master_writes_visible_in_region_and_back() {
        let out = run_system(cfg(3), |tmk| {
            let v = tmk.malloc_vec::<i64>(3 * 100);
            // Master initializes sequentially.
            let init: Vec<i64> = (0..300).map(|i| i as i64).collect();
            tmk.write_slice(&v, 0, &init);
            // Each node doubles its chunk.
            tmk.parallel(0, move |t| {
                let me = t.proc_id();
                let r = me * 100..(me + 1) * 100;
                t.view_mut(&v, r, |chunk| {
                    for x in chunk.iter_mut() {
                        *x *= 2;
                    }
                });
            });
            // Master reads everything after the join barrier.
            tmk.read_slice(&v, 0..300)
        });
        let expect: Vec<i64> = (0..300).map(|i| i * 2).collect();
        assert_eq!(out.result, expect);
    }

    #[test]
    fn locks_serialize_a_shared_counter() {
        const PER_NODE: usize = 25;
        let out = run_system(cfg(4), |tmk| {
            let c = tmk.malloc_scalar::<u64>(0);
            tmk.parallel(0, move |t| {
                for _ in 0..PER_NODE {
                    t.lock_acquire(7);
                    let v = c.get(t);
                    c.set(t, v + 1);
                    t.lock_release(7);
                }
            });
            c.get(tmk)
        });
        assert_eq!(out.result, 4 * PER_NODE as u64);
    }

    #[test]
    fn semaphore_pipeline_two_nodes() {
        // Producer (node 0) hands 10 values to consumer (node 1).
        let out = run_system(cfg(2), |tmk| {
            let data = tmk.malloc_scalar::<u64>(0);
            let sum = tmk.malloc_scalar::<u64>(0);
            const AVAIL: u32 = 0;
            const DONE: u32 = 1;
            tmk.parallel(0, move |t| {
                if t.proc_id() == 0 {
                    for i in 1..=10u64 {
                        data.set(t, i);
                        t.sema_signal(AVAIL);
                        t.sema_wait(DONE);
                    }
                } else {
                    let mut acc = 0;
                    for _ in 0..10 {
                        t.sema_wait(AVAIL);
                        acc += data.get(t);
                        t.sema_signal(DONE);
                    }
                    sum.set(t, acc);
                }
            });
            sum.get(tmk)
        });
        assert_eq!(out.result, 55);
        assert_eq!(out.dsm.sema_signals, 20);
        assert_eq!(out.dsm.sema_waits, 20);
    }

    #[test]
    fn condition_variable_wakes_waiter() {
        let out = run_system(cfg(2), |tmk| {
            let flag = tmk.malloc_scalar::<u32>(0);
            let seen = tmk.malloc_scalar::<u32>(0);
            const L: u32 = 3;
            const CV: u32 = 0;
            tmk.parallel(0, move |t| {
                if t.proc_id() == 1 {
                    t.lock_acquire(L);
                    while flag.get(t) == 0 {
                        t.cond_wait(L, CV);
                    }
                    let v = flag.get(t);
                    seen.set(t, v);
                    t.lock_release(L);
                } else {
                    t.lock_acquire(L);
                    flag.set(t, 99);
                    t.cond_signal(L, CV);
                    t.lock_release(L);
                }
            });
            seen.get(tmk)
        });
        assert_eq!(out.result, 99);
        assert_eq!(out.dsm.cond_signals, 1);
    }

    #[test]
    fn flush_pushes_updates_to_spinning_reader() {
        let out = run_system(cfg(2), |tmk| {
            let flag = tmk.malloc_scalar::<u32>(0);
            let data = tmk.malloc_scalar::<u64>(0);
            let got = tmk.malloc_scalar::<u64>(0);
            tmk.parallel(0, move |t| {
                if t.proc_id() == 0 {
                    data.set(t, 1234);
                    flag.set(t, 1);
                    t.flush();
                } else {
                    while flag.get(t) == 0 {
                        t.spin_hint();
                    }
                    let v = data.get(t);
                    got.set(t, v);
                }
            });
            got.get(tmk)
        });
        assert_eq!(out.result, 1234);
        assert_eq!(out.dsm.flushes, 1);
        // 2(n-1) messages for the flush itself: 1 notice + 1 ack.
        let k = out.net.kind("flush_notice").map_or(0, |k| k.send_msgs);
        assert_eq!(k, 1);
    }

    #[test]
    fn false_sharing_multiple_writers_same_page() {
        // All 4 nodes write adjacent u64s in the same page concurrently.
        let out = run_system(cfg(4), |tmk| {
            let v = tmk.malloc_vec::<u64>(4);
            tmk.parallel(0, move |t| {
                let me = t.proc_id();
                t.write(&v, me, (me as u64 + 1) * 7);
            });
            tmk.read_slice(&v, 0..4)
        });
        assert_eq!(out.result, vec![7, 14, 21, 28]);
    }

    #[test]
    fn gc_every_barrier_preserves_data() {
        let mut c = cfg(3);
        c.gc_every_barrier = true;
        let out = run_system(c, |tmk| {
            let v = tmk.malloc_vec::<u64>(3 * 64);
            for round in 0..4u64 {
                tmk.parallel(0, move |t| {
                    let me = t.proc_id();
                    let r = me * 64..(me + 1) * 64;
                    t.view_mut(&v, r, |chunk| {
                        for x in chunk.iter_mut() {
                            *x += round + 1;
                        }
                    });
                });
            }
            tmk.read_slice(&v, 0..3 * 64)
        });
        // Sum over rounds: 1+2+3+4 = 10 in every slot.
        assert!(
            out.result.iter().all(|&x| x == 10),
            "gc corrupted data: {:?}",
            &out.result[..8]
        );
        assert!(out.dsm.gc_runs > 0, "GC never ran");
    }

    /// Two regions on `tmk`'s nodes: in the first each node fills its
    /// page of `v`; in the second each slave reads the next slave's page,
    /// and every node adds 10 times what it read (the master its own
    /// page) to its own page of `w`, a copy of its page of `v`. Each
    /// slave serves one page to one reader, so no virtual timestamp
    /// depends on the host order of requests. Returns the sums of `w`'s
    /// pages and, per node, the GC rounds it ran between the two regions'
    /// starts.
    fn two_regions(tmk: &mut Tmk) -> (Vec<u64>, Vec<u64>) {
        let n = tmk.nprocs();
        let v = tmk.malloc_vec::<u64>(512 * n);
        let w = tmk.malloc_vec::<u64>(512 * n);
        let runs = Arc::new(Mutex::new(vec![0u64; n]));
        let gc_runs = |t: &Tmk| t.metrics().op(crate::TmkOp::GcRuns).get();
        let before = runs.clone();
        tmk.parallel(0, move |t| {
            let me = t.proc_id();
            before.lock()[me] = gc_runs(t);
            t.view_mut(&v, me * 512..(me + 1) * 512, |c| c.fill(me as u64 + 1));
        });
        let since = runs.clone();
        tmk.parallel(0, move |t| {
            let me = t.proc_id();
            let now = gc_runs(t);
            let mut since = since.lock();
            since[me] = now - since[me];
            drop(since);
            let next = if me == 0 {
                0
            } else {
                1 + me % (t.nprocs() - 1)
            };
            let seen = t.read_slice(&v, next * 512..(next + 1) * 512);
            assert!(seen.iter().all(|&x| x == next as u64 + 1), "{seen:?}");
            let mine = t.read_slice(&v, me * 512..(me + 1) * 512);
            let sum: Vec<u64> = mine.iter().map(|x| x + 10 * seen[0]).collect();
            t.write_slice(&w, me * 512, &sum);
        });
        let sums = (0..n).map(|k| tmk.read_slice(&w, k * 512..(k + 1) * 512).iter().sum());
        let sums = sums.collect();
        let runs = runs.lock().clone();
        (sums, runs)
    }

    #[test]
    fn a_joins_gc_round_runs_at_the_next_fork_on_every_node() {
        let mut c = TmkConfig::deterministic(3);
        c.gc_every_barrier = true;
        let out = run_system(c, two_regions);
        // Node k's page of `w` holds k + 1 plus 10 times what it read.
        let (sums, runs) = out.result;
        assert_eq!(sums, [512 * (1 + 10), 512 * (2 + 30), 512 * (3 + 20)]);
        // Region 1's join calls a round, which every node runs when the
        // fork reaches it, before region 2's body. Region 2's join calls
        // one too, but no fork follows: the reset drops it.
        assert_eq!(runs, [1, 1, 1]);
        assert_eq!(out.dsm.gc_runs, 3);
        assert!(out.dsm.page_fetches > 0, "region 2 reads post-GC pages");
        assert_eq!(out.dsm.barriers, 2 * 3, "each join counts once a node");
    }

    #[test]
    fn a_warm_job_after_a_join_that_calls_gc_equals_a_cold_one() {
        // The first job ends in a join whose GC round never runs; the
        // reset drops it, and the next job replays a cold run bit for bit.
        let mut c = TmkConfig::deterministic(3);
        c.gc_every_barrier = true;
        let cold = run_system(c.clone(), two_regions);
        let mut sys = System::build(c);
        let first = sys.run_job(two_regions).unwrap();
        let warm = sys.run_job(two_regions).unwrap();
        for out in [&first, &warm] {
            assert_eq!(out.result, cold.result);
            assert_eq!(out.dsm, cold.dsm);
            assert_eq!(out.net, cold.net);
            assert_eq!(out.vt_ns, cold.vt_ns);
        }
        sys.shutdown();
    }

    #[test]
    fn vt_advances_and_speedup_is_sane() {
        let out = run_system(cfg(2), |tmk| {
            let v = tmk.malloc_vec::<u64>(2048);
            tmk.parallel(0, move |t| {
                let me = t.proc_id();
                let r = me * 1024..(me + 1) * 1024;
                t.view_mut(&v, r, |chunk| {
                    for (i, x) in chunk.iter_mut().enumerate() {
                        *x = (i as u64).wrapping_mul(2654435761);
                    }
                });
            });
            0u8
        });
        assert!(out.vt_ns > 0);
    }

    #[test]
    fn stats_track_protocol_activity() {
        let out = run_system(cfg(2), |tmk| {
            let v = tmk.malloc_vec::<u64>(512);
            tmk.parallel(0, move |t| {
                if t.proc_id() == 0 {
                    t.view_mut(&v, 0..512, |c| c.fill(5));
                }
            });
            // Force node 1 to fault the data in a second region.
            tmk.parallel(0, move |t| {
                if t.proc_id() == 1 {
                    let s = t.read_slice(&v, 0..512);
                    assert!(s.iter().all(|&x| x == 5));
                }
            });
            0u8
        });
        assert!(out.dsm.twins_created > 0);
        assert!(out.dsm.diffs_created > 0);
        assert!(out.dsm.diffs_applied > 0);
        assert!(out.dsm.invalidations > 0);
        assert!(out.dsm.read_faults > 0);
        assert!(out.dsm.barriers >= 4);
    }

    // ------------------------------------------------------------------
    // Warm system: job streams on one cluster
    // ------------------------------------------------------------------

    /// A small deterministic job: parallel writes + a faulting reader.
    ///
    /// Every node writes a page of its own (512 `u64`s at the 4 KiB test
    /// page size), so no application thread's fault count depends on
    /// whether its service thread has already applied a peer's notices
    /// for a page it is writing. Multiple writers on one page are covered
    /// by `tests/dsm_consistency.rs` and `state.rs`'s unit tests; making
    /// *that* case replay deterministically is ROADMAP item 1's job.
    fn job(tmk: &mut Tmk) -> Vec<u64> {
        let n = tmk.nprocs();
        let v = tmk.malloc_vec::<u64>(512 * n);
        tmk.parallel(0, move |t| {
            let me = t.proc_id();
            let r = me * 512..(me + 1) * 512;
            t.view_mut(&v, r, |c| {
                for (i, x) in c.iter_mut().enumerate() {
                    *x = i as u64 + 1;
                }
            });
        });
        tmk.read_slice(&v, 0..512 * n)
    }

    #[test]
    fn warm_system_runs_a_job_stream() {
        let mut sys = System::build(cfg(4));
        let a = sys.run_job(job).unwrap();
        let b = sys.run_job(job).unwrap();
        let c = sys.run_job(job).unwrap();
        assert_eq!(a.result, b.result);
        assert_eq!(b.result, c.result);
        sys.shutdown();
    }

    #[test]
    fn warm_jobs_get_exact_stat_deltas_and_deterministic_replays() {
        // The second and third runs of the same job on one warm system
        // must report identical statistics, virtual times and traffic —
        // the reset leaves no residue and job streams replay
        // deterministically.
        let mut sys = System::build(TmkConfig::deterministic(4));
        let a = sys.run_job(job).unwrap();
        let b = sys.run_job(job).unwrap();
        assert_eq!(a.result, b.result);
        assert_eq!(a.dsm, b.dsm, "per-job DSM stats must be exact deltas");
        assert_eq!(a.net, b.net, "per-job traffic must be exact deltas");
        assert_eq!(a.vt_ns, b.vt_ns, "virtual time restarts per job");
        sys.shutdown();
    }

    #[test]
    fn warm_job_equals_cold_run() {
        // Job N+1 on a warm system is bit-identical to a cold one-shot
        // run of the same job (fresh state, clocks at zero).
        let cold = run_system(TmkConfig::deterministic(3), job);
        let mut sys = System::build(TmkConfig::deterministic(3));
        let _first = sys.run_job(job).unwrap();
        let warm = sys.run_job(job).unwrap();
        assert_eq!(cold.result, warm.result);
        assert_eq!(cold.dsm, warm.dsm);
        assert_eq!(cold.net.total_msgs(), warm.net.total_msgs());
        assert_eq!(cold.vt_ns, warm.vt_ns);
        sys.shutdown();
    }

    #[test]
    fn warm_system_mixes_job_shapes() {
        // Different result types and shapes on one system; allocations
        // restart at address 0 every job.
        let mut sys = System::build(cfg(2));
        let a = sys.run_job(|t| {
            let v = t.malloc_vec::<u64>(8);
            t.write(&v, 0, 9);
            t.read(&v, 0)
        });
        assert_eq!(a.unwrap().result, 9);
        let b = sys.run_job(|t| {
            let v = t.malloc_vec::<f64>(4);
            t.write(&v, 3, 2.5);
            format!("{}", t.read(&v, 3))
        });
        assert_eq!(b.unwrap().result, "2.5");
        sys.shutdown();
    }

    #[test]
    fn lock_state_does_not_leak_across_jobs() {
        // Job 1 leaves semaphore counts and manager lock state behind;
        // job 2 must see a pristine cluster (a leaked signal would
        // satisfy the first wait and desynchronize the pipeline).
        let pipeline = |tmk: &mut Tmk| {
            let sum = tmk.malloc_scalar::<u64>(0);
            let data = tmk.malloc_scalar::<u64>(0);
            tmk.parallel(0, move |t| {
                if t.proc_id() == 0 {
                    for i in 1..=3u64 {
                        data.set(t, i);
                        t.sema_signal(0);
                        t.sema_wait(1);
                    }
                } else {
                    let mut acc = 0;
                    for _ in 0..3 {
                        t.sema_wait(0);
                        acc += data.get(t);
                        t.sema_signal(1);
                    }
                    sum.set(t, acc);
                }
            });
            // Leave an unconsumed signal behind on purpose.
            tmk.sema_signal(7);
            sum.get(tmk)
        };
        let mut sys = System::build(cfg(2));
        let a = sys.run_job(pipeline).unwrap();
        let b = sys.run_job(pipeline).unwrap();
        assert_eq!(a.result, 6);
        assert_eq!(b.result, 6);
        assert_eq!(a.dsm, b.dsm);
        sys.shutdown();
    }

    #[test]
    fn dead_system_reports_system_down() {
        let mut sys = System::build(cfg(2));
        sys.run_job(|t| {
            let v = t.malloc_vec::<u64>(1);
            t.write(&v, 0, 1);
        })
        .unwrap();
        let sys_ref = &mut sys;
        // Kill it via a panicking job.
        let r = std::panic::catch_unwind(AssertUnwindSafe(move || {
            let _ = sys_ref.run_job::<(), _>(|_| panic!("job dies"));
        }));
        assert!(r.is_err(), "job panic must propagate");
        assert!(!sys.is_alive());
        assert_eq!(sys.run_job(|_| 0u8).unwrap_err(), SystemDown);
    }
}

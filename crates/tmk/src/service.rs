//! The per-node protocol service thread.
//!
//! Real TreadMarks handles remote requests in a SIGIO handler that
//! interrupts the computation; here a dedicated thread per node plays that
//! role. It owns the network inbox: responses are routed to the blocked
//! application thread, fork messages to the worker loop, and requests to
//! [`on_request`], a function of the node state and one message that
//! returns the replies and grants to send. [`handle_request`] sends them,
//! in order, while it still holds the node-state mutex. The service
//! thread never blocks on remote operations, which makes the protocol
//! deadlock-free by construction.

use crate::interval::{NoticeBundle, VectorClock};
use crate::protocol::{Acquire, Gathered, Msg, Region, Release};
use crate::state::{Arrival, NodeState, Riders, SyncId};
use crossbeam::channel::Sender;
use now_net::{Delivered, Endpoint, Wire as _};
use now_trace::{EventKind, SERVICE_LANE};
use parking_lot::Mutex;
use std::sync::Arc;

/// Work shipped to a slave's application thread.
pub enum WorkItem {
    /// Run one parallel region.
    Run(ForkJob),
    /// Warm-cluster job boundary: reset this node's DSM state and report
    /// the finished job's statistics back to the master.
    Reset,
    /// Exit the worker loop (system shutdown).
    Stop,
}

/// A forked region plus its delivery metadata.
pub struct ForkJob {
    /// The region body and modeled payload.
    pub region: Region,
    /// The slave's deferred departure from the last join, with the
    /// master's sequential section ([`Msg::Fork`]).
    pub acq: Acquire,
    /// Run the last join's GC round before the region.
    pub gc: bool,
    /// Sending node (the master).
    pub src: usize,
    /// Virtual arrival time of the fork message.
    pub arrival_vt: u64,
}

/// Run the service loop until a `Shutdown` message arrives.
pub fn service_loop(
    ep: Endpoint<Msg>,
    state: Arc<Mutex<NodeState>>,
    to_app: Sender<Delivered<Msg>>,
    work_tx: Sender<WorkItem>,
) {
    let mut out = Vec::new();
    loop {
        let d = ep.recv();
        match d.msg {
            // Responses: route to the blocked application thread, which
            // charges the arrival time itself.
            Msg::DiffRep { .. }
            | Msg::PageRep { .. }
            | Msg::LockGrant { .. }
            | Msg::BarrierDepart { .. }
            | Msg::SemaAck { .. }
            | Msg::SemaGrant { .. }
            | Msg::FlushAck
            | Msg::StealRep { .. }
            | Msg::TermGo { .. }
            | Msg::ResetDone
            | Msg::SyncAck
            | Msg::GcComplete { .. } => {
                let _ = to_app.send(d);
            }
            Msg::ResetReq => {
                // Job boundary: handled on the application thread so it
                // runs strictly after every preceding work item (and this
                // inbox is FIFO, so every request sent before the reset
                // has already been served above).
                let _ = work_tx.send(WorkItem::Reset);
            }
            Msg::Fork { region, acq, gc } => {
                let _ = work_tx.send(WorkItem::Run(ForkJob {
                    region,
                    acq,
                    gc,
                    src: d.src,
                    arrival_vt: d.arrival_vt,
                }));
            }
            Msg::Shutdown => {
                let _ = work_tx.send(WorkItem::Stop);
                break;
            }
            // Requests: handle here.
            _ => handle_request(&ep, &state, d, &mut out),
        }
    }
}

/// Serve one request: charge its receipt to the service timeline, run
/// [`on_request`] under the node-state mutex, and send what it returns,
/// in order, before releasing the mutex.
fn handle_request(
    ep: &Endpoint<Msg>,
    state: &Mutex<NodeState>,
    d: Delivered<Msg>,
    out: &mut Vec<(usize, Msg)>,
) {
    let svc_t0 = ep.service_rx(&d);
    let mut st = state.lock();
    on_request(&mut st, d.src, d.msg, d.arrival_vt, out);
    if ep.tracer().on() {
        if let [(_, Msg::DiffRep { pages })] = out.as_slice() {
            // Diff encodings materialize lazily while serving, so the
            // creation cost shows up on the service track: one span for
            // the whole reply, tagged with its first page.
            let diffs = pages.iter().map(|(_, diffs)| diffs.len()).sum::<usize>();
            ep.tracer().span(
                EventKind::DiffCreate,
                SERVICE_LANE,
                svc_t0,
                ep.clock().service_now(),
                pages.first().map_or(0, |&(page, _)| page as u64),
                diffs as u64,
            );
        }
    }
    for (dst, msg) in out.drain(..) {
        ep.send_service(dst, msg);
    }
}

/// Handle one protocol request `msg` from `src`, which arrived at
/// `arrival_vt`: update `st`, charging its service timeline, and push the
/// replies and grants to send onto `out`, in send order.
pub(crate) fn on_request(
    st: &mut NodeState,
    src: usize,
    msg: Msg,
    arrival_vt: u64,
    out: &mut Vec<(usize, Msg)>,
) {
    st.in_service = true;
    match msg {
        Msg::DiffReq { pages } => {
            let pages = pages
                .into_iter()
                .map(|(page, ids)| (page, st.serve_diffs(page, &ids)))
                .collect();
            out.push((src, Msg::DiffRep { pages }));
        }
        Msg::PageReq { page } => {
            let (epoch, bytes) = st.serve_page(page);
            out.push((src, Msg::PageRep { page, epoch, bytes }));
        }
        Msg::LockAcq { lock, vc, req_vt } => {
            mgr_wait(st, SyncId::Lock(lock), src, vc, req_vt, out);
        }
        Msg::LockRelease { lock, rel } => mgr_release(st, src, SyncId::Lock(lock), rel, out),
        Msg::BarrierArrive {
            epoch,
            join,
            rel,
            diff_bytes,
            partials,
        } => {
            debug_assert_eq!(st.id, 0, "barrier manager is node 0");
            debug_assert_eq!(epoch, st.mgr.barrier_epoch, "barrier episode mismatch");
            st.mgr.arrivals.push(Arrival {
                node: src,
                join,
                rel,
                diff_bytes,
                partials,
            });
            st.mgr.barrier_last_arrive_vt = st.mgr.barrier_last_arrive_vt.max(arrival_vt);
            if st.mgr.arrivals.len() == st.n {
                release_barrier(st, epoch, out);
            }
        }
        Msg::SemaSignal { sema, bundle } => {
            mgr_signal(st, src, SyncId::Sema(sema), &bundle, out);
            out.push((src, Msg::SemaAck { sema }));
        }
        Msg::SemaWait { sema, vc, req_vt } => {
            mgr_wait(st, SyncId::Sema(sema), src, vc, req_vt, out);
        }
        Msg::CondWait { lock, cond, rel } => {
            // The wait parks the caller on the condition variable and
            // releases the lock (possibly granting the next queued
            // requester).
            let waiters = st.mgr.conds.entry((lock, cond)).or_default();
            waiters.push_back((src, rel.bundle.pvc.clone()));
            mgr_release(st, src, SyncId::Lock(lock), rel, out);
        }
        Msg::CondSignal { lock, cond, req_vt } | Msg::CondBroadcast { lock, cond, req_vt } => {
            let all = matches!(msg, Msg::CondBroadcast { .. });
            // The waiters re-contend for the critical section as of the
            // signal.
            while let Some((w, wvc)) = st.mgr.conds.entry((lock, cond)).or_default().pop_front() {
                mgr_wait(st, SyncId::Lock(lock), w, wvc, req_vt, out);
                if !all {
                    break;
                }
            }
        }
        Msg::FlushNotice { bundle } => {
            st.apply_bundle(src, &bundle);
            out.push((src, Msg::FlushAck));
        }
        Msg::StealReq { .. } => out.push(st.serve_steal(msg)),
        Msg::TaskJoin { .. } => out.extend(st.serve_task_join(src, msg)),
        Msg::TaskDone { .. } => st.on_task_done(src, msg, arrival_vt),
        Msg::TermIdle { scope } => st.serve_term_idle(src, scope, out),
        Msg::TermWake { scope } => st.serve_term_wake(scope, out),
        Msg::GcDone { epoch } => {
            debug_assert_eq!(st.id, 0, "GC coordinator is node 0");
            st.mgr.gc_done += 1;
            if st.mgr.gc_done == st.n {
                st.mgr.gc_done = 0;
                st.mgr.gc_in_progress = false;
                // Highest node first, coordinator's own app thread last, so
                // the master cannot race ahead of slave deliveries.
                out.extend((0..st.n).rev().map(|k| (k, Msg::GcComplete { epoch })));
            }
        }
        // Fence for the sender: by FIFO, everything it enqueued before
        // this message has been handled once it sees the ack (the master
        // quiesces its own service this way).
        Msg::SyncReq => out.push((src, Msg::SyncAck)),
        other => unreachable!("service thread got unexpected message {:?}", other.kind()),
    }
    st.in_service = false;
}

/// Manager-side wait (lock acquire, semaphore wait): grant at once if a
/// permit is free, else queue (granted later in virtual-request-time
/// order).
fn mgr_wait(
    st: &mut NodeState,
    obj: SyncId,
    requester: usize,
    vc: VectorClock,
    req_vt: u64,
    out: &mut Vec<(usize, Msg)>,
) {
    debug_assert_eq!(st.manager_of(obj), st.id, "acquire routed to non-manager");
    if st.mgr.queue(obj).wait(req_vt, requester, &vc) {
        send_grant(st, obj, requester, &vc, out);
    }
}

/// Manager-side release with riders (lock release, condition wait):
/// keep its subscriptions and diffs for `obj`'s later grants, then
/// signal.
fn mgr_release(
    st: &mut NodeState,
    src: usize,
    obj: SyncId,
    rel: Release,
    out: &mut Vec<(usize, Msg)>,
) {
    let riders = st.mgr.riders.entry(obj).or_default();
    riders.subscribe(src, rel.subscribed);
    riders.attach(src, rel.updates);
    mgr_signal(st, src, obj, &rel.bundle, out);
}

/// Manager-side signal (lock release, semaphore signal, condition wait):
/// apply the releaser's bundle, then hand the permit to the earliest
/// waiter or bank it.
fn mgr_signal(
    st: &mut NodeState,
    src: usize,
    obj: SyncId,
    bundle: &NoticeBundle,
    out: &mut Vec<(usize, Msg)>,
) {
    debug_assert_eq!(st.manager_of(obj), st.id, "release routed to non-manager");
    st.apply_bundle(src, bundle);
    let q = st.mgr.queue(obj);
    debug_assert!(
        matches!(obj, SyncId::Sema(_)) || q.permits == 0,
        "release of a free lock"
    );
    if let Some((waiter, vc)) = q.signal() {
        send_grant(st, obj, waiter, &vc, out);
    }
}

/// Grant `obj` to `dst`, with the notices its clock `vc` lacks. A lock
/// grant also publishes the other nodes' subscriptions and forwards the
/// kept diffs owed to `dst` ([`Riders::grant`]): those in its bundle, or
/// all of them in a grant to this node, a free self-send whose clock
/// covers every release this node has managed.
fn send_grant(
    st: &mut NodeState,
    obj: SyncId,
    dst: usize,
    vc: &VectorClock,
    out: &mut Vec<(usize, Msg)>,
) {
    let bundle = st.grant_to(dst, vc);
    let grant = match obj {
        SyncId::Lock(lock) => {
            let seen = (dst != st.id).then_some(vc);
            let riders = st.mgr.riders.entry(obj).or_default();
            let acq = riders.grant(dst, bundle, seen);
            Msg::LockGrant { lock, acq }
        }
        SyncId::Sema(sema) => Msg::SemaGrant { sema, bundle },
        SyncId::Barrier => unreachable!("a barrier departs, it is not granted"),
    };
    out.push((dst, grant));
}

/// All nodes have arrived: merge complete, send departures (slaves first,
/// the manager's own application thread last).
///
/// A region's join departs only the manager: after it only the master
/// runs until the next fork, so each slave's departure waits for that
/// fork, which carries it (`NodeState::fork_request`). The episode's
/// riders are kept for it in `ManagerState::riders` under
/// `SyncId::Barrier`, and a GC round the join starts runs at the fork.
///
/// The episode's riders live in one [`Riders`], as a lock's do across
/// tenures: every arrival's subscriptions are recorded before any diff
/// is attached, so each diff is kept for every other subscriber of its
/// page, and each departure is a grant with no bundle filter. It
/// publishes the pages the other nodes subscribe to and forwards every
/// attached diff of a page its node subscribes to, other than the
/// node's own; the node keeps only those whose notices it holds
/// unapplied (`NodeState::on_depart`). The manager's own departure, a
/// free self-send, carries every arrival's reduction partials, sorted by
/// `(site, node)`.
fn release_barrier(st: &mut NodeState, epoch: u32, out: &mut Vec<(usize, Msg)>) {
    let total_diff_bytes: u64 = st.mgr.arrivals.iter().map(|a| a.diff_bytes).sum::<u64>();
    let gc = st.cfg.gc_every_barrier || total_diff_bytes > st.cfg.gc_threshold_bytes as u64;
    st.mgr.gc_in_progress = gc;
    let mut arrivals = std::mem::take(&mut st.mgr.arrivals);
    let join = arrivals.iter().any(|a| a.join);
    debug_assert!(
        arrivals.iter().all(|a| a.join == join),
        "a join is every node's"
    );
    // Deterministic order: descending node id, manager (node 0) last, so
    // the departures' diffs are in one order whatever the arrivals' was.
    arrivals.sort_by_key(|a| std::cmp::Reverse(a.node));
    let mut riders = Riders::default();
    for a in &mut arrivals {
        riders.subscribe(a.node, std::mem::take(&mut a.rel.subscribed));
    }
    for a in &mut arrivals {
        riders.attach(a.node, std::mem::take(&mut a.rel.updates));
    }
    st.mgr.barrier_epoch += 1;
    // No node departs before the last one arrived: the backlog cap may
    // have let the service cursor slip below a virtually-late arrival
    // that was processed early in host order, and departure stamps must
    // sit at or after every arrival.
    st.clock
        .service_raise_to(std::mem::take(&mut st.mgr.barrier_last_arrive_vt));
    // The arrivals' notices are applied only now, with the manager's own
    // application thread parked in the barrier: applied as each arrived,
    // they would invalidate its pages mid-episode, and whether it then
    // faulted before departing would depend on host timing.
    for a in &arrivals {
        st.apply_bundle(a.node, &a.rel.bundle);
    }
    let mut partials: Vec<Gathered> = arrivals
        .iter_mut()
        .flat_map(|a| {
            let node = a.node;
            std::mem::take(&mut a.partials)
                .into_iter()
                .map(move |(site, bytes)| (site, node, bytes))
        })
        .collect();
    partials.sort_by_key(|&(site, node, _)| (site, node));
    let mgr = st.id;
    for a in arrivals.iter().filter(|a| !join || a.node == mgr) {
        let bundle = st.grant_to(a.node, &a.rel.bundle.pvc);
        let depart = Msg::BarrierDepart {
            epoch,
            acq: riders.grant(a.node, bundle, None),
            gc: gc && !join,
            partials: if a.node == mgr {
                std::mem::take(&mut partials)
            } else {
                Vec::new()
            },
        };
        out.push((a.node, depart));
    }
    if join {
        st.mgr.riders.insert(SyncId::Barrier, riders);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::PageId;
    use crate::diff::Diff;
    use crate::interval::{IntervalId, IntervalInfo};
    use crate::world::World;

    // ------------------------------------------------------------------
    // Every manager path as the `(dst, kind)` sequence it sends
    // ------------------------------------------------------------------

    /// Node 0 of four: the manager of lock 0, semaphore 0, the barrier
    /// and the GC round.
    fn manager() -> NodeState {
        World::node(0, 4)
    }

    /// Hand `msg` from `src` to `st`'s handler: what it sends, in order.
    fn respond(st: &mut NodeState, src: usize, msg: Msg) -> Vec<(usize, Msg)> {
        let mut out = Vec::new();
        on_request(st, src, msg, 0, &mut out);
        out
    }

    /// [`respond`] as `(dst, kind)`.
    fn serve(st: &mut NodeState, src: usize, msg: Msg) -> Vec<(usize, &'static str)> {
        let out = respond(st, src, msg).into_iter();
        out.map(|(dst, m)| (dst, m.kind())).collect()
    }

    fn bundle() -> NoticeBundle {
        NoticeBundle::empty(VectorClock::zero(4))
    }

    fn acq(req_vt: u64) -> Msg {
        let vc = VectorClock::zero(4);
        Msg::LockAcq {
            lock: 0,
            vc,
            req_vt,
        }
    }

    /// An acquire of lock 0 by a node whose processed clock is `pvc`.
    fn acq_at(pvc: [u32; 4]) -> Msg {
        Msg::LockAcq {
            lock: 0,
            vc: VectorClock(pvc.to_vec()),
            req_vt: 0,
        }
    }

    fn rel() -> Msg {
        Msg::LockRelease {
            lock: 0,
            rel: released(0, [0; 4], &[], &[]),
        }
    }

    fn cond_wait() -> Msg {
        Msg::CondWait {
            lock: 0,
            cond: 0,
            rel: released(0, [0; 4], &[], &[]),
        }
    }

    const NOTHING: [(usize, &str); 0] = [];

    #[test]
    fn a_free_lock_is_granted_at_once_and_a_busy_one_queues() {
        let mut m = manager();
        assert_eq!(serve(&mut m, 1, acq(5)), [(1, "lock_grant")]);
        assert_eq!(serve(&mut m, 2, acq(3)), NOTHING);
        assert_eq!(m.mgr.queue(SyncId::Lock(0)).waiters.len(), 1);
    }

    #[test]
    fn a_release_grants_the_earliest_waiter_by_request_time_then_node() {
        let mut m = manager();
        assert_eq!(serve(&mut m, 1, acq(0)), [(1, "lock_grant")]);
        for (node, req_vt) in [(3, 9), (2, 7), (0, 7)] {
            assert_eq!(serve(&mut m, node, acq(req_vt)), NOTHING);
        }
        assert_eq!(serve(&mut m, 1, rel()), [(0, "lock_grant")]);
        assert_eq!(serve(&mut m, 0, rel()), [(2, "lock_grant")]);
        assert_eq!(serve(&mut m, 2, rel()), [(3, "lock_grant")]);
        assert_eq!(serve(&mut m, 3, rel()), NOTHING);
        assert_eq!(m.mgr.queue(SyncId::Lock(0)).permits, 1, "the lock is free");
    }

    #[test]
    fn a_semaphore_signal_banks_a_permit_and_is_acked() {
        let mut m = manager();
        let wait = || Msg::SemaWait {
            sema: 0,
            vc: VectorClock::zero(4),
            req_vt: 0,
        };
        let signal = || Msg::SemaSignal {
            sema: 0,
            bundle: bundle(),
        };
        assert_eq!(serve(&mut m, 1, signal()), [(1, "sema_ack")]);
        assert_eq!(serve(&mut m, 2, wait()), [(2, "sema_grant")]);
        assert_eq!(serve(&mut m, 3, wait()), NOTHING);
        // A signal with a waiter grants it before acking the signaller.
        assert_eq!(
            serve(&mut m, 1, signal()),
            [(3, "sema_grant"), (1, "sema_ack")]
        );
    }

    #[test]
    fn a_cond_wait_releases_the_lock_to_a_queued_acquirer() {
        let mut m = manager();
        assert_eq!(serve(&mut m, 1, acq(0)), [(1, "lock_grant")]);
        assert_eq!(serve(&mut m, 2, acq(0)), NOTHING);
        assert_eq!(serve(&mut m, 1, cond_wait()), [(2, "lock_grant")]);
    }

    #[test]
    fn a_cond_signal_without_waiters_sends_nothing() {
        let mut m = manager();
        assert_eq!(serve(&mut m, 1, acq(0)), [(1, "lock_grant")]);
        let signal = Msg::CondSignal {
            lock: 0,
            cond: 0,
            req_vt: 0,
        };
        assert_eq!(serve(&mut m, 1, signal), NOTHING);
        assert_eq!(serve(&mut m, 1, rel()), NOTHING);
    }

    #[test]
    fn a_cond_broadcast_requeues_every_waiter_for_the_lock() {
        let mut m = manager();
        for node in [1, 2] {
            assert_eq!(serve(&mut m, node, acq(0)), [(node, "lock_grant")]);
            assert_eq!(serve(&mut m, node, cond_wait()), NOTHING);
        }
        assert_eq!(serve(&mut m, 3, acq(0)), [(3, "lock_grant")]);
        let broadcast = Msg::CondBroadcast {
            lock: 0,
            cond: 0,
            req_vt: 5,
        };
        assert_eq!(serve(&mut m, 3, broadcast), NOTHING);
        assert_eq!(m.mgr.queue(SyncId::Lock(0)).waiters.len(), 2);
        assert_eq!(serve(&mut m, 3, rel()), [(1, "lock_grant")]);
        assert_eq!(serve(&mut m, 1, rel()), [(2, "lock_grant")]);
        assert_eq!(serve(&mut m, 2, rel()), NOTHING);
    }

    /// A release by `node`: its processed clock `pvc` and its intervals
    /// (`seq`, pages written), each written page's diff attached, and its
    /// subscriptions.
    fn released(
        node: usize,
        pvc: [u32; 4],
        wrote: &[(u32, &[PageId])],
        subscribed: &[PageId],
    ) -> Release {
        let mut bundle = NoticeBundle::empty(VectorClock(pvc.to_vec()));
        let mut updates = Vec::new();
        for &(seq, pages) in wrote {
            let id = IntervalId {
                node: node as u32,
                seq,
            };
            let mut vc = VectorClock(pvc.to_vec());
            vc.0[node] = seq;
            let info = IntervalInfo {
                vc_sum: vc.sum(),
                vc,
                pages: pages.to_vec(),
            };
            bundle.intervals.push((id, Arc::new(info)));
            let diff = Arc::new(Diff::create(&[0; 8], &[seq as u8; 8]));
            updates.extend(pages.iter().map(|&pid| (pid, id, diff.clone())));
        }
        bundle.vc = bundle.pvc.clone();
        let subscribed = subscribed.to_vec();
        Release {
            bundle,
            subscribed,
            updates,
        }
    }

    /// A barrier arrival at episode 0: [`released`]'s release.
    fn arrive(
        node: usize,
        pvc: [u32; 4],
        wrote: &[(u32, &[PageId])],
        subscribed: &[PageId],
    ) -> Msg {
        Msg::BarrierArrive {
            epoch: 0,
            join: false,
            rel: released(node, pvc, wrote, subscribed),
            diff_bytes: 0,
            partials: vec![],
        }
    }

    /// A departure or grant as `(dst, kind, published pages, attached
    /// (page, id)s)`.
    type Acquired = (usize, &'static str, Vec<PageId>, Vec<(PageId, IntervalId)>);

    /// What `msg` from `src` makes `st` send: departures or grants.
    fn acquires(st: &mut NodeState, src: usize, msg: Msg) -> Vec<Acquired> {
        respond(st, src, msg).into_iter().map(acquired).collect()
    }

    /// A departure, grant or fork as [`Acquired`].
    fn acquired((dst, m): (usize, Msg)) -> Acquired {
        let (Msg::BarrierDepart { acq, .. } | Msg::LockGrant { acq, .. } | Msg::Fork { acq, .. }) =
            &m
        else {
            panic!("expected a departure, grant or fork, got {}", m.kind())
        };
        let attached = acq.updates.iter().map(|(pid, id, _)| (*pid, *id)).collect();
        (dst, m.kind(), acq.published.clone(), attached)
    }

    #[test]
    fn a_departure_forwards_the_other_writers_diffs_of_its_subscribed_pages() {
        let mut m = manager();
        let id = |node, seq| IntervalId { node, seq };
        // Node 1 wrote pages 0 and 1; node 2 had already acquired that
        // interval (through a lock, say) and wrote page 0 after it; node 3
        // wrote page 2, which nobody subscribes to.
        let arrivals = [
            (3, arrive(3, [0; 4], &[(1, &[2])], &[])),
            (1, arrive(1, [0; 4], &[(1, &[0, 1])], &[0])),
            (2, arrive(2, [0, 1, 0, 0], &[(1, &[0])], &[0])),
        ];
        for (node, msg) in arrivals {
            assert_eq!(acquires(&mut m, node, msg), []);
        }
        // The manager arrives last; the others' notices are applied
        // only now, so its clock covers none of them.
        let barrier = acquires(&mut m, 0, arrive(0, [0; 4], &[], &[1]));
        let kind = "barrier_depart";
        let want = [
            // Node 3 subscribes to nothing and gets nothing.
            (3, kind, vec![0, 1], vec![]),
            // Node 2 gets node 1's page-0 diff although it acquired that
            // notice already (its `on_depart` keeps the diff only while
            // the notice is unapplied), and never its own.
            (2, kind, vec![0, 1], vec![(0, id(1, 1))]),
            // Node 1 gets node 2's page-0 diff, never its own.
            (1, kind, vec![0, 1], vec![(0, id(2, 1))]),
            // The manager's own departure is a self-send like the rest;
            // it publishes the others' subscriptions, not its own, and
            // carries the diff of its page although its bundle is empty.
            (0, kind, vec![0], vec![(1, id(1, 1))]),
        ];
        assert_eq!(barrier, want);
        // The episode's riders were local to its release: the manager's
        // store keeps none of them past it.
        assert!(m.mgr.riders.is_empty(), "attachments live one episode");
    }

    #[test]
    fn a_join_departs_the_manager_alone_and_the_next_fork_carries_the_rest() {
        let mut m = manager();
        let id = |node, seq| IntervalId { node, seq };
        // The episode of the test above, as a region's join.
        let join = |mut msg: Msg| {
            if let Msg::BarrierArrive { join, .. } = &mut msg {
                *join = true;
            }
            msg
        };
        let arrivals = [
            (3, arrive(3, [0; 4], &[(1, &[2])], &[])),
            (1, arrive(1, [0; 4], &[(1, &[0, 1])], &[0])),
            (2, arrive(2, [0, 1, 0, 0], &[(1, &[0])], &[0])),
        ];
        for (node, msg) in arrivals {
            assert_eq!(acquires(&mut m, node, join(msg)), []);
        }
        let departed = acquires(&mut m, 0, join(arrive(0, [0; 4], &[], &[1])));
        let want = [(0, "barrier_depart", vec![0], vec![(1, id(1, 1))])];
        assert_eq!(departed, want, "the manager departs alone");
        assert!(m.mgr.riders.contains_key(&SyncId::Barrier));
        // The fork to each slave is the departure it did not get: the
        // riders, and the notices its arrival's clock lacks.
        let region = Region {
            f: Arc::new(|_| {}),
            payload_bytes: 0,
        };
        let (forks, gc) = m.fork_request(&region);
        for (p, fork) in &forks {
            let Msg::Fork { acq, .. } = fork else {
                panic!("expected a fork, got {}", fork.kind())
            };
            let seen = if *p == 2 { [0, 1, 0, 0] } else { [0; 4] };
            let departure = m.bundle_for(&VectorClock(seen.to_vec()));
            assert_eq!(acq.bundle.intervals, departure.intervals, "node {p}");
        }
        let want = [
            (1, "fork", vec![0, 1], vec![(0, id(2, 1))]),
            (2, "fork", vec![0, 1], vec![(0, id(1, 1))]),
            (3, "fork", vec![0, 1], vec![]),
        ];
        assert_eq!(forks.into_iter().map(acquired).collect::<Vec<_>>(), want);
        assert_eq!(gc, None);
        assert!(m.mgr.riders.is_empty(), "the fork took the join's riders");
    }

    /// A release of lock 0: [`released`]'s release.
    fn release(node: usize, wrote: &[(u32, &[PageId])], subscribed: &[PageId]) -> Msg {
        let rel = released(node, [0; 4], wrote, subscribed);
        Msg::LockRelease { lock: 0, rel }
    }

    #[test]
    fn a_grant_forwards_the_kept_diffs_of_its_subscribed_pages_in_its_bundle() {
        let mut m = manager();
        let id = |node, seq| IntervalId { node, seq };
        let kind = "lock_grant";
        // Nodes 1 and 2 subscribe to page 0 under the lock, node 3 to
        // pages 0 and 1. Nothing is written yet, so nothing is kept.
        for (node, subscribed) in [(1, &[0][..]), (2, &[0]), (3, &[0, 1])] {
            assert_eq!(acquires(&mut m, node, acq(0)).len(), 1);
            assert_eq!(acquires(&mut m, node, release(node, &[], subscribed)), []);
        }
        // Node 1's grant publishes the others' union; its writes of both
        // pages are kept for their subscribers (page 1: node 3 only).
        let want = (1, kind, vec![0, 1], vec![]);
        assert_eq!(acquires(&mut m, 1, acq(0)), [want]);
        assert_eq!(acquires(&mut m, 1, release(1, &[(1, &[0, 1])], &[0])), []);
        // Node 2 gets node 1's page-0 diff, not the page-1 one.
        let want = (2, kind, vec![0, 1], vec![(0, id(1, 1))]);
        assert_eq!(acquires(&mut m, 2, acq(0)), [want]);
        assert_eq!(acquires(&mut m, 2, release(2, &[(1, &[0])], &[0])), []);
        // Node 1 gets node 2's diff, never its own two, which stay kept
        // for node 3.
        let want = (1, kind, vec![0, 1], vec![(0, id(2, 1))]);
        assert_eq!(acquires(&mut m, 1, acq(0)), [want]);
        assert_eq!(acquires(&mut m, 1, release(1, &[], &[0])), []);
        let kept = |m: &NodeState| m.mgr.riders[&SyncId::Lock(0)].kept.len();
        assert_eq!(kept(&m), 3);
        // Node 3 acquired node 1's interval elsewhere: its clock covers
        // it, so only node 2's diff is in its bundle. Every subscriber
        // has now been granted past every kept diff: none is left.
        let want = (3, kind, vec![0], vec![(0, id(2, 1))]);
        assert_eq!(acquires(&mut m, 3, acq_at([0, 1, 0, 0])), [want]);
        assert_eq!(kept(&m), 0);
    }

    #[test]
    fn a_grant_to_the_manager_forwards_every_diff_owed_to_it() {
        let mut m = manager();
        // The manager subscribes to page 0 under its lock; node 1 writes
        // the page in its tenure.
        assert_eq!(acquires(&mut m, 0, acq(0)).len(), 1);
        assert_eq!(acquires(&mut m, 0, release(0, &[], &[0])), []);
        assert_eq!(acquires(&mut m, 1, acq(0)).len(), 1);
        assert_eq!(acquires(&mut m, 1, release(1, &[(1, &[0])], &[])), []);
        // The release logged node 1's interval here, so the manager's own
        // clock covers it; its free self-send carries the diff all the same.
        assert!(m.processed_vc.covers(1, 1));
        let pvc = m.processed_vc.0.clone().try_into().expect("four nodes");
        let grant = acquires(&mut m, 0, acq_at(pvc));
        let id = IntervalId { node: 1, seq: 1 };
        assert_eq!(grant, [(0, "lock_grant", vec![], vec![(0, id)])]);
        assert_eq!(m.mgr.riders[&SyncId::Lock(0)].kept.len(), 0);
    }

    #[test]
    fn the_managers_own_departure_carries_every_partial_by_site_then_node() {
        for gc in [false, true] {
            let mut m = manager();
            // Node `k` contributed site 9 (`[k]`) and, on odd nodes, site 3
            // (`[10 + k]`) before it; a GC trigger on node 2's arrival.
            let arrive = |k: usize| Msg::BarrierArrive {
                epoch: 0,
                join: false,
                rel: released(k, [0; 4], &[], &[]),
                diff_bytes: if gc && k == 2 { u64::MAX / 2 } else { 0 },
                partials: (k % 2 == 1)
                    .then(|| (3, vec![10 + k as u8]))
                    .into_iter()
                    .chain([(9, vec![k as u8])])
                    .collect(),
            };
            let out = [2, 0, 3, 1]
                .into_iter()
                .flat_map(|k| respond(&mut m, k, arrive(k)));
            let departures: Vec<(usize, bool, Vec<Gathered>)> = out
                .map(|(dst, msg)| match msg {
                    Msg::BarrierDepart { gc, partials, .. } => (dst, gc, partials),
                    other => panic!("expected a departure, got {}", other.kind()),
                })
                .collect();
            let want: Vec<Gathered> = vec![
                (3, 1, vec![11]),
                (3, 3, vec![13]),
                (9, 0, vec![0]),
                (9, 1, vec![1]),
                (9, 2, vec![2]),
                (9, 3, vec![3]),
            ];
            assert_eq!(
                departures,
                [
                    (3, gc, vec![]),
                    (2, gc, vec![]),
                    (1, gc, vec![]),
                    (0, gc, want),
                ]
            );
            assert!(m.mgr.arrivals.is_empty());
        }
    }

    #[test]
    fn barrier_departures_go_out_highest_node_first_manager_last() {
        let mut m = manager();
        let arrive = || arrive(0, [0; 4], &[], &[]);
        for node in [2, 0, 3] {
            assert_eq!(serve(&mut m, node, arrive()), NOTHING);
        }
        let departures = serve(&mut m, 1, arrive());
        let kind = "barrier_depart";
        assert_eq!(departures, [(3, kind), (2, kind), (1, kind), (0, kind)]);
        assert_eq!(m.mgr.barrier_epoch, 1);
    }

    #[test]
    fn the_last_gc_done_completes_the_round_highest_node_first() {
        let mut m = manager();
        for node in [3, 0, 1] {
            assert_eq!(serve(&mut m, node, Msg::GcDone { epoch: 0 }), NOTHING);
        }
        let done = serve(&mut m, 2, Msg::GcDone { epoch: 0 });
        let kind = "gc_complete";
        assert_eq!(done, [(3, kind), (2, kind), (1, kind), (0, kind)]);
    }

    #[test]
    fn data_requests_flushes_and_fences_are_answered_to_the_sender() {
        let mut m = manager();
        let diff_req = Msg::DiffReq {
            pages: vec![(0, vec![])],
        };
        assert_eq!(serve(&mut m, 1, diff_req), [(1, "diff_rep")]);
        assert_eq!(
            serve(&mut m, 2, Msg::PageReq { page: 0 }),
            [(2, "page_rep")]
        );
        let flush = Msg::FlushNotice { bundle: bundle() };
        assert_eq!(serve(&mut m, 3, flush), [(3, "flush_ack")]);
        // A steal is answered to its thief: by the last hop of its
        // chain, or by the first hop that finds a task. An empty hop
        // with victims left forwards the chain and answers nothing; an
        // empty hop marks the deque, which the next push clears.
        let steal = |rest: Vec<u16>| Msg::StealReq {
            scope: 1,
            vc: VectorClock::zero(4),
            thief: 2,
            rest,
        };
        assert_eq!(serve(&mut m, 2, steal(vec![])), [(2, "steal_rep")]);
        assert_eq!(serve(&mut m, 1, steal(vec![3])), [(3, "steal_req")]);
        assert_eq!(m.task_push(1, [0; 4], 0, 4), Some(true));
        assert_eq!(serve(&mut m, 1, steal(vec![3])), [(2, "steal_rep")]);
        assert_eq!(serve(&mut m, 0, Msg::SyncReq), [(0, "sync_ack")]);
        assert!(!m.in_service, "in service only while handling");
    }

    #[test]
    fn a_diff_request_is_answered_page_by_page_in_request_order() {
        let mut w = World::new(3);
        // Node 0 writes pages 0 and 1; node 1 learns of it, reads page 0
        // only, and writes pages 0 and 2.
        w.write(0, 0, 1, 1);
        w.write(0, 1, 2, 2);
        w.nodes[0].close_interval();
        w.deliver(0, 1, false);
        w.fault(1, &[0], false);
        w.write(1, 0, 3, 3);
        w.write(1, 2, 4, 4);
        w.nodes[1].close_interval();
        let (a, c) = (
            IntervalId { node: 0, seq: 1 },
            IntervalId { node: 1, seq: 1 },
        );
        // One request for three pages gets one reply, pages in request
        // order; page 1's entry is short, as node 1 never applied it.
        let req = Msg::DiffReq {
            pages: vec![(2, vec![c]), (0, vec![c, a]), (1, vec![a])],
        };
        w.send(2, (1, req));
        w.pump();
        let Some((1, Msg::DiffRep { pages })) = w.inbox[2].pop_front() else {
            panic!("a DiffRep from node 1")
        };
        let ids = |diffs: &crate::protocol::PageDiffs| diffs.iter().map(|(id, _)| *id).collect();
        let got: Vec<(PageId, Vec<IntervalId>)> = pages
            .iter()
            .map(|(pid, diffs)| (*pid, ids(diffs)))
            .collect();
        assert_eq!(got, [(2, vec![c]), (0, vec![c, a]), (1, vec![])]);
        assert!(Arc::ptr_eq(
            &pages[1].1[1].1,
            &w.nodes[0].pages[0].diffs[&a]
        ));
    }
}

//! The per-node protocol service thread.
//!
//! Real TreadMarks handles remote requests in a SIGIO handler that
//! interrupts the computation; here a dedicated thread per node plays that
//! role. It owns the network inbox: requests are handled in place (under
//! the node-state mutex), responses are routed to the blocked application
//! thread, fork messages are routed to the worker loop. The service thread
//! never blocks on remote operations, which makes the protocol
//! deadlock-free by construction.

use crate::interval::{NoticeBundle, VectorClock};
use crate::protocol::{Msg, Region};
use crate::state::{NodeState, SyncId};
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
    /// Master's sequential-section release information.
    pub bundle: NoticeBundle,
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
            Msg::SyncReq => {
                // Fence for the sender: by FIFO, everything it enqueued
                // before this message has been handled once it sees the
                // ack (the master quiesces its own service this way).
                ep.send_service(d.src, Msg::SyncAck);
            }
            Msg::Fork { region, bundle } => {
                let _ = work_tx.send(WorkItem::Run(ForkJob {
                    region,
                    bundle,
                    src: d.src,
                    arrival_vt: d.arrival_vt,
                }));
            }
            Msg::Shutdown => {
                let _ = work_tx.send(WorkItem::Stop);
                break;
            }
            // Requests: handle here.
            _ => handle_request(&ep, &state, d),
        }
    }
}

fn handle_request(ep: &Endpoint<Msg>, state: &Arc<Mutex<NodeState>>, d: Delivered<Msg>) {
    let svc_t0 = ep.service_rx(&d);
    let src = d.src;
    match d.msg {
        Msg::DiffReq { page, ids } => {
            let diffs = {
                let mut st = state.lock();
                st.in_service = true;
                let r = st.serve_diffs(page, &ids);
                st.in_service = false;
                r
            };
            if ep.tracer().on() {
                // Diff encodings materialize lazily while serving, so the
                // creation cost shows up on the service track.
                ep.tracer().span(
                    EventKind::DiffCreate,
                    SERVICE_LANE,
                    svc_t0,
                    ep.clock().service_now(),
                    page as u64,
                    diffs.len() as u64,
                );
            }
            ep.send_service(src, Msg::DiffRep { page, diffs });
        }
        Msg::PageReq { page } => {
            let (epoch, bytes) = {
                let mut st = state.lock();
                st.in_service = true;
                let r = st.serve_page(page);
                st.in_service = false;
                r
            };
            ep.send_service(src, Msg::PageRep { page, epoch, bytes });
        }
        Msg::LockAcq { lock, vc, req_vt } => {
            mgr_wait(ep, &mut state.lock(), SyncId::Lock(lock), src, vc, req_vt);
        }
        Msg::LockRelease { lock, bundle } => {
            mgr_signal(ep, &mut state.lock(), src, SyncId::Lock(lock), &bundle);
        }
        Msg::BarrierArrive {
            epoch,
            bundle,
            diff_bytes,
        } => {
            let mut st = state.lock();
            debug_assert_eq!(st.id, 0, "barrier manager is node 0");
            debug_assert_eq!(epoch, st.mgr.barrier_epoch, "barrier episode mismatch");
            let arrival_vc = bundle.pvc.clone();
            st.apply_bundle(src, &bundle);
            st.mgr.arrivals.push((src, arrival_vc, diff_bytes));
            st.mgr.barrier_last_arrive_vt = st.mgr.barrier_last_arrive_vt.max(d.arrival_vt);
            if st.mgr.arrivals.len() == st.n {
                release_barrier(ep, &mut st, epoch);
            }
        }
        Msg::SemaSignal { sema, bundle } => {
            mgr_signal(ep, &mut state.lock(), src, SyncId::Sema(sema), &bundle);
            ep.send_service(src, Msg::SemaAck { sema });
        }
        Msg::SemaWait { sema, vc, req_vt } => {
            mgr_wait(ep, &mut state.lock(), SyncId::Sema(sema), src, vc, req_vt);
        }
        Msg::CondWait { lock, cond, bundle } => {
            // The wait parks the caller on the condition variable and
            // releases the lock (possibly granting the next queued
            // requester).
            let mut st = state.lock();
            let waiters = st.mgr.conds.entry((lock, cond)).or_default();
            waiters.push_back((src, bundle.pvc.clone()));
            mgr_signal(ep, &mut st, src, SyncId::Lock(lock), &bundle);
        }
        Msg::CondSignal { lock, cond, req_vt } => {
            let mut st = state.lock();
            let waiter = st.mgr.conds.entry((lock, cond)).or_default().pop_front();
            if let Some((w, wvc)) = waiter {
                // The waiter re-contends for the critical section as of
                // the signal.
                mgr_wait(ep, &mut st, SyncId::Lock(lock), w, wvc, req_vt);
            }
        }
        Msg::CondBroadcast { lock, cond, req_vt } => {
            let mut st = state.lock();
            loop {
                let waiter = st.mgr.conds.entry((lock, cond)).or_default().pop_front();
                match waiter {
                    Some((w, wvc)) => mgr_wait(ep, &mut st, SyncId::Lock(lock), w, wvc, req_vt),
                    None => break,
                }
            }
        }
        Msg::FlushNotice { bundle } => {
            let mut st = state.lock();
            st.apply_bundle(src, &bundle);
            drop(st);
            ep.send_service(src, Msg::FlushAck);
        }
        Msg::GcDone { epoch } => {
            let mut st = state.lock();
            debug_assert_eq!(st.id, 0, "GC coordinator is node 0");
            st.mgr.gc_done += 1;
            if st.mgr.gc_done == st.n {
                st.mgr.gc_done = 0;
                st.mgr.gc_in_progress = false;
                drop(st);
                // Highest node first, coordinator's own app thread last, so
                // the master cannot race ahead of slave deliveries.
                for k in (0..ep.nodes()).rev() {
                    ep.send_service(k, Msg::GcComplete { epoch });
                }
            }
        }
        other => unreachable!("service thread got unexpected message {:?}", other.kind()),
    }
}

/// Manager-side wait (lock acquire, semaphore wait): grant at once if a
/// permit is free, else queue (granted later in virtual-request-time
/// order).
fn mgr_wait(
    ep: &Endpoint<Msg>,
    st: &mut NodeState,
    obj: SyncId,
    requester: usize,
    vc: VectorClock,
    req_vt: u64,
) {
    let (SyncId::Lock(id) | SyncId::Sema(id)) = obj;
    debug_assert_eq!(st.manager_of(id), st.id, "acquire routed to non-manager");
    if st.mgr.queue(obj).wait(req_vt, requester, &vc) {
        send_grant(ep, st, obj, requester, &vc);
    }
}

/// Manager-side signal (lock release, semaphore signal, condition wait):
/// apply the releaser's bundle, then hand the permit to the earliest
/// waiter or bank it.
fn mgr_signal(
    ep: &Endpoint<Msg>,
    st: &mut NodeState,
    src: usize,
    obj: SyncId,
    bundle: &NoticeBundle,
) {
    let (SyncId::Lock(id) | SyncId::Sema(id)) = obj;
    debug_assert_eq!(st.manager_of(id), st.id, "release routed to non-manager");
    st.apply_bundle(src, bundle);
    let q = st.mgr.queue(obj);
    debug_assert!(
        matches!(obj, SyncId::Sema(_)) || q.permits == 0,
        "release of a free lock"
    );
    if let Some((waiter, vc)) = q.signal() {
        send_grant(ep, st, obj, waiter, &vc);
    }
}

/// Grant `obj` to `dst`, with the notices its clock `vc` lacks.
fn send_grant(ep: &Endpoint<Msg>, st: &mut NodeState, obj: SyncId, dst: usize, vc: &VectorClock) {
    let bundle = st.grant_to(dst, vc);
    let grant = match obj {
        SyncId::Lock(lock) => Msg::LockGrant { lock, bundle },
        SyncId::Sema(sema) => Msg::SemaGrant { sema, bundle },
    };
    ep.send_service(dst, grant);
}

/// All nodes have arrived: merge complete, send departures (slaves first,
/// the manager's own application thread last).
fn release_barrier(ep: &Endpoint<Msg>, st: &mut NodeState, epoch: u32) {
    let total_diff_bytes: u64 = st.mgr.arrivals.iter().map(|(_, _, b)| *b).sum::<u64>();
    let gc = st.cfg.gc_every_barrier || total_diff_bytes > st.cfg.gc_threshold_bytes as u64;
    if gc {
        st.mgr.gc_in_progress = true;
        st.mgr.gc_done = 0;
    }
    let arrivals = std::mem::take(&mut st.mgr.arrivals);
    st.mgr.barrier_epoch += 1;
    // No node departs before the last one arrived: the backlog cap may
    // have let the service cursor slip below a virtually-late arrival
    // that was processed early in host order, and departure stamps must
    // sit at or after every arrival.
    ep.clock()
        .service_raise_to(std::mem::take(&mut st.mgr.barrier_last_arrive_vt));
    let mut departures: Vec<(usize, NoticeBundle)> = arrivals
        .into_iter()
        .map(|(node, vc, _)| (node, st.grant_to(node, &vc)))
        .collect();
    // Deterministic order: descending node id, manager (node 0) last.
    departures.sort_by_key(|(node, _)| std::cmp::Reverse(*node));
    for (node, bundle) in departures {
        ep.send_service(node, Msg::BarrierDepart { epoch, bundle, gc });
    }
}

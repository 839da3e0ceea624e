//! The DSM wire protocol: every message TreadMarks nodes exchange.
//!
//! Messages carry real Rust data through the simulated interconnect; the
//! [`Wire`] implementation reports the size each message would have on a
//! real network, which drives both the bandwidth cost model and the
//! Table 2 traffic statistics.

use crate::addr::PageId;
use crate::diff::Diff;
use crate::interval::{IntervalId, NoticeBundle, VectorClock};
use crate::tasks::Taken;
use now_net::Wire;
use std::sync::Arc;

/// A parallel-region body shipped at fork time.
///
/// The closure's by-value captures are the OpenMP `firstprivate`
/// environment ("copied into a structure and passed at fork", §4.2 of the
/// paper); `payload_bytes` models that structure's wire size.
#[derive(Clone)]
pub struct Region {
    /// The region body, executed by every node's application thread.
    pub f: Arc<dyn Fn(&mut crate::api::Tmk) + Send + Sync>,
    /// Modeled size of the fork message payload.
    pub payload_bytes: usize,
}

impl std::fmt::Debug for Region {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Region")
            .field("payload_bytes", &self.payload_bytes)
            .finish()
    }
}

/// A diff riding a barrier or lock message: the page, the writing
/// interval, and the writer's encoding of it.
pub type Update = (PageId, IntervalId, Arc<Diff>);

/// A page's diffs by interval, as a fault holds or fetches them.
pub type PageDiffs = Vec<(IntervalId, Arc<Diff>)>;

/// A reduction partial riding a barrier arrival: the reduction site and
/// the node's value as raw bytes.
pub type Partial = (u32, Vec<u8>);

/// A partial as the barrier manager forwards it: site, contributing
/// node, bytes.
pub type Gathered = (u32, usize, Vec<u8>);

/// What a barrier arrival, lock release or condition wait carries to
/// its manager.
#[derive(Debug, Clone)]
pub struct Release {
    /// The releaser's new intervals + clock.
    pub bundle: NoticeBundle,
    /// The pages the releaser subscribes to under the object (it took a
    /// read fault on them or, under the barrier, twinned them), ascending.
    pub subscribed: Vec<PageId>,
    /// The releaser's diffs of the pages its last acquire published, for
    /// the intervals this release closes (the master's arrival leaves out
    /// those before its fork, which attached them); at a job's first
    /// barrier also those of the pages it subscribes to, since its fork.
    pub updates: Vec<Update>,
}

/// What a barrier departure or lock grant carries to the acquirer.
#[derive(Debug, Clone)]
pub struct Acquire {
    /// The notices the acquirer lacks + the merged clock.
    pub bundle: NoticeBundle,
    /// The pages the other nodes subscribe to under the object,
    /// ascending: the acquirer's next release attaches its diffs of them.
    pub published: Vec<PageId>,
    /// Other writers' diffs of the acquirer's subscribed pages. A fork's
    /// include the master's of its sequential section, and a job's first
    /// fork carries every one of those, on speculation.
    pub updates: Vec<Update>,
}

impl Release {
    /// Wire bytes of the record.
    pub fn wire_bytes(&self) -> usize {
        self.bundle.wire_bytes() + riders_wire_bytes(&self.subscribed, &self.updates)
    }
}

impl Acquire {
    /// Wire bytes of the record.
    pub fn wire_bytes(&self) -> usize {
        self.bundle.wire_bytes() + riders_wire_bytes(&self.published, &self.updates)
    }
}

/// All DSM protocol messages.
#[derive(Debug, Clone)]
pub enum Msg {
    /// Fault handling: request the listed diffs of each page from a
    /// writer whose interval dominates them. One request per writer and
    /// fault round carries the faulted pages and their siblings, the
    /// other invalid pages the named intervals wrote.
    DiffReq {
        /// Per page, the intervals whose diffs are needed: the receiver's
        /// own, and other writers' it is expected to have applied and
        /// retained.
        pages: Vec<(PageId, Vec<IntervalId>)>,
    },
    /// Writer's reply with the requested diffs it holds, page by page in
    /// request order. All of its own are always there; a retained one it
    /// never applied is left out, and the requester asks that interval's
    /// creator.
    DiffRep {
        /// Per page, `(interval, diff)` pairs, a subset of its requested
        /// ids.
        pages: Vec<(PageId, PageDiffs)>,
    },
    /// Post-GC cold fetch: request a full page copy from its owner.
    PageReq {
        /// Requested page.
        page: PageId,
    },
    /// Owner's full-page reply.
    PageRep {
        /// Page id.
        page: PageId,
        /// GC epoch of the copy.
        epoch: u32,
        /// Page contents.
        bytes: Arc<[u8]>,
    },
    /// Lock acquire request, sent to the lock's manager (the requester
    /// is the sender).
    LockAcq {
        /// Lock id.
        lock: u32,
        /// Requester's *processed* clock (grant bundles are filtered
        /// against it; filtering by the promise clock could omit notices
        /// still in flight to the requester on another channel).
        vc: VectorClock,
        /// Requester's virtual clock at request time. The manager grants
        /// in `req_vt` order: on real hardware requests are served in
        /// arrival order, and in the simulation virtual request time *is*
        /// the faithful stand-in for it (host-thread scheduling order is
        /// noise).
        req_vt: u64,
    },
    /// Release notification to the manager (the manager then grants
    /// with its merged knowledge, as it does for semaphores).
    LockRelease {
        /// Lock id.
        lock: u32,
        /// The release: its diffs are those of the interval it closes.
        rel: Release,
    },
    /// Manager grants the lock, piggybacking consistency data.
    LockGrant {
        /// Lock id.
        lock: u32,
        /// The acquire: its diffs are those of intervals in its bundle.
        acq: Acquire,
    },
    /// Barrier arrival: a release to the centralized manager. A region's
    /// join is one-way for a slave: it sends this and goes back to
    /// waiting for work, and the next [`Msg::Fork`] is its departure.
    BarrierArrive {
        /// Barrier episode number (sanity check).
        epoch: u32,
        /// The episode is a region's join: the manager departs only
        /// itself and keeps the episode's riders for the next fork.
        join: bool,
        /// The release: its diffs are those since the last arrival.
        rel: Release,
        /// Arriver's cached diff storage (GC trigger input).
        diff_bytes: u64,
        /// The reduction partials the arriver contributed since its last
        /// arrival, in contribution order.
        partials: Vec<Partial>,
    },
    /// Barrier departure: an acquire delivering missing notices. At a
    /// join only the manager's own is sent.
    BarrierDepart {
        /// Barrier episode number.
        epoch: u32,
        /// The acquire: its diffs are every other writer's of the
        /// episode.
        acq: Acquire,
        /// Run diff garbage collection before leaving the barrier.
        gc: bool,
        /// Every arrival's reduction partials by `(site, node)`: in the
        /// manager's own departure only, a free self-send.
        partials: Vec<Gathered>,
    },
    /// `sema_signal`: a release to the semaphore's manager.
    SemaSignal {
        /// Semaphore id.
        sema: u32,
        /// Signaler's new intervals + clock.
        bundle: NoticeBundle,
    },
    /// Manager's acknowledgment of a signal (2 messages total, as §5.3).
    SemaAck {
        /// Semaphore id.
        sema: u32,
    },
    /// `sema_wait` request (the waiter is the sender).
    SemaWait {
        /// Semaphore id.
        sema: u32,
        /// Waiter's processed clock (grant filter, as for locks).
        vc: VectorClock,
        /// Waiter's virtual clock (grants go to the earliest waiter).
        req_vt: u64,
    },
    /// Manager releases a waiter, forwarding consistency information.
    SemaGrant {
        /// Semaphore id.
        sema: u32,
        /// Notices the waiter lacks.
        bundle: NoticeBundle,
    },
    /// `cond_wait`: releases the lock and enqueues the caller (the
    /// sender) at the lock's manager.
    CondWait {
        /// The critical section's lock.
        lock: u32,
        /// Condition variable id.
        cond: u32,
        /// The release of the lock, as for [`Msg::LockRelease`].
        rel: Release,
    },
    /// `cond_signal`: move one waiter to the lock queue.
    CondSignal {
        /// The critical section's lock.
        lock: u32,
        /// Condition variable id.
        cond: u32,
        /// Signaler's virtual clock (the waiter re-requests "as of" the
        /// signal).
        req_vt: u64,
    },
    /// `cond_broadcast`: move all waiters to the lock queue.
    CondBroadcast {
        /// The critical section's lock.
        lock: u32,
        /// Condition variable id.
        cond: u32,
        /// Signaler's virtual clock.
        req_vt: u64,
    },
    /// OpenMP `flush`: push write notices to one peer (sent to all peers,
    /// 2(n−1) messages per flush including acks — the cost the paper's
    /// Modification 2 eliminates).
    FlushNotice {
        /// Flusher's new intervals + clock.
        bundle: NoticeBundle,
    },
    /// Acknowledgment of a flush notice.
    FlushAck,
    /// A thief asks a victim for the oldest task of its deque. A sweep is
    /// one chain: a victim with nothing to give flags its deque hungry
    /// and forwards the request, but for `rest` unchanged, to the next
    /// victim; the hop that finds a task, or the last hop, answers.
    StealReq {
        /// The task scope the thief is in.
        scope: u32,
        /// Thief's processed clock (the reply's bundle filter, as for a
        /// lock acquire).
        vc: VectorClock,
        /// The node the answer goes to.
        thief: u16,
        /// The victims still to ask, in the thief's order.
        rest: Vec<u16>,
    },
    /// The victim's answer to [`Msg::StealReq`].
    StealRep {
        /// The task taken, if any, with its parent's frame, and the
        /// backlog it left.
        taken: Taken,
        /// The notices the thief lacks, as a lock grant gives them: with
        /// the push's interval, everything the spawner wrote before it.
        bundle: NoticeBundle,
    },
    /// A `taskwait` with no child left on its node joins a thief, which
    /// answers with [`Msg::TaskDone`] once the children it stole are done.
    TaskJoin {
        /// The waiting task's scope, and its frame on the waiter's node.
        frame: (u32, u32),
        /// The frame's children the thief stole since its last join.
        stolen: u64,
        /// Waiter's processed clock (the answer's bundle filter).
        vc: VectorClock,
    },
    /// A thief's answer to [`Msg::TaskJoin`], served by the waiter's
    /// service thread.
    TaskDone {
        /// The joined frame, as the join named it.
        frame: (u32, u32),
        /// The notices the waiter lacks, with the children's writes.
        bundle: NoticeBundle,
    },
    /// An idle node's task worker parks at node 0, which answers with
    /// [`Msg::TermGo`] once a push wakes it or every node is parked (the
    /// parked node is the sender).
    TermIdle {
        /// The task scope the worker is in.
        scope: u32,
    },
    /// A push cleared a hungry flag: node 0 wakes its oldest parked
    /// worker of the scope, or drops the wake when none is parked.
    TermWake {
        /// The task scope of the push.
        scope: u32,
    },
    /// Node 0's answer to [`Msg::TermIdle`].
    TermGo {
        /// Every node is parked: the scope is over. Else a push woke
        /// the worker.
        done: bool,
    },
    /// Master ships a parallel-region body to a slave (Tmk_fork). The
    /// fork is also the slave's deferred departure from the last join.
    Fork {
        /// The region closure + modeled payload.
        region: Region,
        /// The acquire: the notices the slave lacks (the last join's and
        /// the master's sequential section's), and the last join's riders
        /// for it, which its own departure would have carried, with the
        /// master's sequential-section diffs among them.
        acq: Acquire,
        /// Run the GC round the last join started before the region,
        /// with the bundle's processed clock as the snapshot.
        gc: bool,
    },
    /// GC: a node finished validating the pages it owns.
    GcDone {
        /// Barrier episode the GC runs under.
        epoch: u32,
    },
    /// GC: manager tells everyone to drop diffs/notices and re-base.
    GcComplete {
        /// Barrier episode the GC runs under.
        epoch: u32,
    },
    /// Warm-cluster job boundary: the master asks a slave's application
    /// thread to reset its node's DSM state before the next job (routed
    /// to the worker loop like a fork, so it runs strictly after every
    /// preceding work item completes).
    ResetReq,
    /// Slave's reply to [`Msg::ResetReq`]: its state is fresh again and
    /// it will count no more protocol events for the finished job.
    ResetDone,
    /// Service-thread fence: the sender's inbox is FIFO, so the matching
    /// [`Msg::SyncAck`] proves every message enqueued before this one has
    /// been handled (the master uses it to quiesce its own service thread
    /// before reading the op counters and resetting node state between jobs).
    SyncReq,
    /// Reply to [`Msg::SyncReq`].
    SyncAck,
    /// Tear down the node's service loop.
    Shutdown,
}

/// Wire bytes of what rides a barrier or lock message: a page list, 4
/// bytes a page, and attached diffs, each counted as a `DiffRep` entry.
fn riders_wire_bytes(pages: &[PageId], updates: &[Update]) -> usize {
    4 * pages.len()
        + updates
            .iter()
            .map(|(_, _, d)| 8 + d.wire_bytes())
            .sum::<usize>()
}

/// Generates `Wire::{kind, kinds, kind_id}` from one ordered list of
/// `(Variant, "label")` rows: a row's position is its `kind_id` and its
/// slot in the network's per-kind traffic counters.
macro_rules! msg_kinds {
    ($(($variant:ident, $label:literal)),* $(,)?) => {
        fn kind(&self) -> &'static str {
            match self {
                $(Msg::$variant { .. } => $label),*
            }
        }

        fn kinds() -> &'static [&'static str] {
            &[$($label),*]
        }

        fn kind_id(&self) -> usize {
            enum Id {
                $($variant),*
            }
            match self {
                $(Msg::$variant { .. } => Id::$variant as usize),*
            }
        }
    };
}

impl Wire for Msg {
    fn wire_bytes(&self) -> usize {
        match self {
            // A one-page message costs what the page alone did; each
            // further page adds its 4-byte id and its entries.
            Msg::DiffReq { pages } => {
                8 + pages
                    .iter()
                    .map(|(_, ids)| 4 + 8 * ids.len())
                    .sum::<usize>()
            }
            Msg::DiffRep { pages } => {
                let entries = |diffs: &PageDiffs| {
                    diffs.iter().map(|(_, d)| 8 + d.wire_bytes()).sum::<usize>()
                };
                4 + pages
                    .iter()
                    .map(|(_, diffs)| 4 + entries(diffs))
                    .sum::<usize>()
            }
            Msg::PageReq { .. } => 12,
            Msg::PageRep { bytes, .. } => 16 + bytes.len(),
            Msg::LockAcq { vc, .. } => 12 + vc.wire_bytes(),
            Msg::LockRelease { rel, .. } => 8 + rel.wire_bytes(),
            Msg::LockGrant { acq, .. } => 8 + acq.wire_bytes(),
            // A partial adds its 4-byte site id and its bytes.
            Msg::BarrierArrive { rel, partials, .. } => {
                16 + rel.wire_bytes() + partials.iter().map(|(_, b)| 4 + b.len()).sum::<usize>()
            }
            Msg::BarrierDepart { acq, partials, .. } => {
                9 + acq.wire_bytes() + partials.iter().map(|(_, _, b)| 8 + b.len()).sum::<usize>()
            }
            Msg::SemaSignal { bundle, .. } => 8 + bundle.wire_bytes(),
            Msg::SemaAck { .. } => 8,
            Msg::SemaWait { vc, .. } => 12 + vc.wire_bytes(),
            Msg::SemaGrant { bundle, .. } => 8 + bundle.wire_bytes(),
            Msg::CondWait { rel, .. } => 16 + rel.wire_bytes(),
            Msg::CondSignal { .. } | Msg::CondBroadcast { .. } => 12,
            Msg::FlushNotice { bundle } => 4 + bundle.wire_bytes(),
            // A 4-byte scope id, then 2 bytes for the thief and for each
            // victim still to ask.
            Msg::StealReq { vc, rest, .. } => 9 + 2 * rest.len() + vc.wire_bytes(),
            // A flag, the task's 32 bytes and its 4-byte frame when there
            // is one, and the backlog.
            Msg::StealRep { taken, bundle } => {
                1 + taken.task.map_or(0, |_| 36) + 8 + bundle.wire_bytes()
            }
            // The 4-byte scope and frame ids, and the child count.
            Msg::TaskJoin { vc, .. } => 16 + vc.wire_bytes(),
            Msg::TaskDone { bundle, .. } => 8 + bundle.wire_bytes(),
            // A 4-byte scope id; the answer is its flag.
            Msg::TermIdle { .. } | Msg::TermWake { .. } => 4,
            Msg::TermGo { .. } => 1,
            Msg::FlushAck => 4,
            // The GC flag travels in the modeled fork header.
            Msg::Fork { region, acq, .. } => region.payload_bytes + acq.wire_bytes(),
            Msg::GcDone { .. } | Msg::GcComplete { .. } => 8,
            // Control-plane messages of the warm-cluster job boundary;
            // sent after a job's traffic snapshot and wiped by the
            // statistics reset, so the sizes never reach a report.
            Msg::ResetReq | Msg::ResetDone | Msg::SyncReq | Msg::SyncAck => 4,
            Msg::Shutdown => 4,
        }
    }

    msg_kinds! {
        (DiffReq, "diff_req"),
        (DiffRep, "diff_rep"),
        (PageReq, "page_req"),
        (PageRep, "page_rep"),
        (LockAcq, "lock_acq"),
        (LockRelease, "lock_rel"),
        (LockGrant, "lock_grant"),
        (BarrierArrive, "barrier_arrive"),
        (BarrierDepart, "barrier_depart"),
        (SemaSignal, "sema_signal"),
        (SemaAck, "sema_ack"),
        (SemaWait, "sema_wait"),
        (SemaGrant, "sema_grant"),
        (CondWait, "cond_wait"),
        (CondSignal, "cond_signal"),
        (CondBroadcast, "cond_broadcast"),
        (FlushNotice, "flush_notice"),
        (FlushAck, "flush_ack"),
        (StealReq, "steal_req"),
        (StealRep, "steal_rep"),
        (TaskJoin, "task_join"),
        (TaskDone, "task_done"),
        (TermIdle, "term_idle"),
        (TermWake, "term_wake"),
        (TermGo, "term_go"),
        (Fork, "fork"),
        (GcDone, "gc_done"),
        (GcComplete, "gc_complete"),
        (ResetReq, "reset_req"),
        (ResetDone, "reset_done"),
        (SyncReq, "sync_req"),
        (SyncAck, "sync_ack"),
        (Shutdown, "shutdown"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interval::IntervalInfo;

    #[test]
    fn wire_sizes_scale_with_content() {
        let id = |seq| IntervalId { node: 0, seq };
        let req = |pages: Vec<(PageId, Vec<IntervalId>)>| Msg::DiffReq { pages }.wire_bytes();
        assert_eq!(req(vec![(1, vec![id(1)])]), 12 + 8);
        assert_eq!(req(vec![(1, (1..=4).map(id).collect())]), 12 + 8 * 4);
        // Each further page adds 4 bytes plus its ids.
        let three = vec![(1, vec![id(1)]), (2, vec![id(1), id(2)]), (5, vec![])];
        assert_eq!(req(three), 12 + 8 + (4 + 8 * 2) + 4);

        let diff = Arc::new(Diff::create(&[0u8; 64], &[1u8; 64]));
        let entry = 8 + diff.wire_bytes();
        let rep = |pages: Vec<(PageId, PageDiffs)>| Msg::DiffRep { pages }.wire_bytes();
        assert_eq!(rep(vec![(1, vec![])]), 8);
        assert_eq!(rep(vec![(1, vec![(id(1), diff.clone())])]), 8 + entry);
        let two = vec![(id(1), diff.clone()), (id(2), diff.clone())];
        let three = vec![
            (1, two.clone()),
            (2, vec![]),
            (5, vec![(id(3), diff.clone())]),
        ];
        assert_eq!(rep(three), 8 + 2 * entry + 4 + (4 + entry));

        let vc = VectorClock::zero(8);
        let granted = |bundle| Msg::LockGrant {
            lock: 0,
            acq: Acquire {
                bundle,
                published: vec![],
                updates: vec![],
            },
        };
        let empty = granted(NoticeBundle::empty(vc.clone()));
        let full = granted(NoticeBundle {
            intervals: vec![(
                IntervalId { node: 1, seq: 1 },
                Arc::new(IntervalInfo {
                    vc_sum: 1,
                    vc: VectorClock(vec![0, 1, 0, 0, 0, 0, 0, 0]),
                    pages: vec![0, 1, 2, 3],
                }),
            )],
            pvc: vc.clone(),
            vc,
        });
        assert!(full.wire_bytes() > empty.wire_bytes());

        // A barrier or lock message is its header plus its record, and
        // grows by 4 bytes a listed page and by each attached diff as a
        // `DiffRep` entry would.
        let empty = NoticeBundle::empty(VectorClock::zero(8));
        let rel = |subscribed: Vec<PageId>, updates: Vec<Update>| Release {
            bundle: empty.clone(),
            subscribed,
            updates,
        };
        let acq = |published: Vec<PageId>, updates: Vec<Update>| Acquire {
            bundle: empty.clone(),
            published,
            updates,
        };
        let updates = vec![(2, id(3), diff.clone()), (5, id(4), diff.clone())];
        let riders = 4 * 3 + 2 * (8 + diff.wire_bytes());
        let arrive = |subscribed: Vec<PageId>, updates: Vec<Update>, partials: Vec<Partial>| {
            Msg::BarrierArrive {
                epoch: 0,
                join: false,
                rel: rel(subscribed, updates),
                diff_bytes: 0,
                partials,
            }
        };
        let bare = arrive(vec![], vec![], vec![]).wire_bytes();
        assert_eq!(bare, 16 + empty.wire_bytes());
        assert_eq!(
            arrive(vec![1, 2, 5], updates.clone(), vec![]).wire_bytes(),
            bare + riders
        );
        // A reduction partial adds its 4-byte site id and its bytes.
        let partials = vec![(7, vec![0; 8]), (9, vec![0; 24])];
        assert_eq!(
            arrive(vec![], vec![], partials).wire_bytes(),
            bare + (4 + 8) + (4 + 24)
        );
        let depart = |published: Vec<PageId>, updates: Vec<Update>| Msg::BarrierDepart {
            epoch: 0,
            acq: acq(published, updates),
            gc: false,
            partials: vec![],
        };
        let bare = depart(vec![], vec![]).wire_bytes();
        assert_eq!(bare, 9 + empty.wire_bytes());
        assert_eq!(
            depart(vec![1, 2, 5], updates.clone()).wire_bytes(),
            bare + riders
        );
        let release = |subscribed: Vec<PageId>, updates: Vec<Update>| Msg::LockRelease {
            lock: 0,
            rel: rel(subscribed, updates),
        };
        let bare = release(vec![], vec![]).wire_bytes();
        assert_eq!(bare, 8 + empty.wire_bytes());
        assert_eq!(
            release(vec![1, 2, 5], updates.clone()).wire_bytes(),
            bare + riders
        );
        let cond_wait = |subscribed: Vec<PageId>, updates: Vec<Update>| Msg::CondWait {
            lock: 0,
            cond: 0,
            rel: rel(subscribed, updates),
        };
        let bare = cond_wait(vec![], vec![]).wire_bytes();
        assert_eq!(bare, 16 + empty.wire_bytes());
        assert_eq!(
            cond_wait(vec![1, 2, 5], updates.clone()).wire_bytes(),
            bare + riders
        );
        // A fork is its modeled payload and its acquire; the GC flag
        // rides in the payload's header.
        let region = Region {
            f: Arc::new(|_| {}),
            payload_bytes: 40,
        };
        let fork = |published: Vec<PageId>, updates: Vec<Update>| Msg::Fork {
            region: region.clone(),
            acq: acq(published, updates),
            gc: true,
        };
        let bare = fork(vec![], vec![]).wire_bytes();
        assert_eq!(bare, 40 + empty.wire_bytes());
        assert_eq!(
            fork(vec![1, 2, 5], updates.clone()).wire_bytes(),
            bare + riders
        );
        let grant = |published: Vec<PageId>, updates: Vec<Update>| Msg::LockGrant {
            lock: 0,
            acq: acq(published, updates),
        };
        let bare = grant(vec![], vec![]).wire_bytes();
        assert_eq!(bare, 8 + empty.wire_bytes());
        assert_eq!(grant(vec![1, 2, 5], updates).wire_bytes(), bare + riders);
    }

    #[test]
    fn a_steal_reply_grows_by_its_task_and_its_bundle() {
        let vc = VectorClock::zero(4);
        let req = |rest: Vec<u16>| Msg::StealReq {
            scope: 1,
            vc: vc.clone(),
            thief: 0,
            rest,
        };
        let bare = req(vec![]).wire_bytes();
        assert_eq!(bare, 9 + vc.wire_bytes());
        assert_eq!(req(vec![2, 3]).wire_bytes(), bare + 4, "2 bytes a hop");
        let rep = |task, bundle: NoticeBundle| Msg::StealRep {
            taken: Taken {
                task,
                ..Default::default()
            },
            bundle,
        };
        let empty = NoticeBundle::empty(vc.clone());
        let bare = rep(None, empty.clone()).wire_bytes();
        assert_eq!(bare, 9 + empty.wire_bytes());
        let task = Some(([0; 4], 1));
        assert_eq!(rep(task, empty.clone()).wire_bytes(), bare + 36);
        // A join names its frame and child count; its answer is a bundle.
        let join = Msg::TaskJoin {
            frame: (1, 2),
            stolen: 3,
            vc: vc.clone(),
        };
        assert_eq!(join.wire_bytes(), 16 + vc.wire_bytes());
        let done = Msg::TaskDone {
            frame: (1, 2),
            bundle: empty.clone(),
        };
        assert_eq!(done.wire_bytes(), 8 + empty.wire_bytes());
    }

    #[test]
    fn kinds_are_distinct_for_key_messages() {
        let a = Msg::DiffReq { pages: vec![] };
        let b = Msg::DiffRep { pages: vec![] };
        assert_ne!(a.kind(), b.kind());
    }

    #[test]
    fn page_reply_counts_page_bytes() {
        let m = Msg::PageRep {
            page: 0,
            epoch: 1,
            bytes: vec![0u8; 4096].into(),
        };
        assert_eq!(m.wire_bytes(), 16 + 4096);
    }
}

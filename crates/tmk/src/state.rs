//! Per-node DSM state and the lazy-release-consistency engine.
//!
//! One `NodeState` exists per simulated workstation, shared (behind a
//! mutex) between the node's application thread and its protocol service
//! thread. All protocol logic that does not require network I/O lives
//! here. A synchronisation op is a request half that returns the message
//! to send and a reply half that takes the answer; the service side is
//! `service::on_request`, a function of this state and one message. What
//! is left to `api.rs` and `service.rs` is sending, waiting and timing.

use crate::addr::{AllocTable, PageId};
use crate::config::TmkConfig;
use crate::diff::Diff;
use crate::interval::{IntervalId, IntervalInfo, NoticeBundle, VectorClock};
use crate::metrics::NodeMetrics;
use crate::page::{NoticeRec, PageMeta, PageState};
use crate::protocol::{Acquire, Gathered, Msg, PageDiffs, Partial, Region, Release, Update};
use crate::stats::TmkOp;
use now_net::{VirtualClock, Wire as _};
use std::collections::{BTreeMap, BTreeSet, HashMap, VecDeque};
use std::sync::Arc;

/// A page's fault plan: each writer to ask, with the ids asked of it.
pub type FaultPlan = Vec<(usize, Vec<IntervalId>)>;

/// A fault round's requests: each writer to ask, with the ids asked of
/// it page by page (one `DiffReq` each).
pub type FaultRequests = Vec<(usize, Vec<(PageId, Vec<IntervalId>)>)>;

/// A fault round's pages: each with the ids requested for it and the
/// diffs here so far, held ones first.
pub type FaultPages = BTreeMap<PageId, (Vec<IntervalId>, PageDiffs)>;

/// A read fault in flight: [`NodeState::fault_request`] starts it and
/// [`NodeState::on_fault_reply`] takes its replies, one at a time.
#[derive(Default)]
pub struct Fault {
    /// The pages, each with whether it needed remote data (a read fault).
    pages: Vec<(PageId, bool)>,
    /// An application fault: subscribe the pages, ask for siblings.
    subscribe: bool,
    /// The pass's pages, applied at once at its end.
    by_page: FaultPages,
    /// The siblings' diffs received, held at the pass's end.
    siblings: Vec<Update>,
    /// Replies the round still owes; none once the fault is over.
    owed: usize,
    /// Each page applied, with its number of diffs.
    pub applied: Vec<(PageId, usize)>,
}

impl Fault {
    /// Whether the fault is over: every page is readable.
    pub fn done(&self) -> bool {
        self.owed == 0
    }

    /// The pages that needed remote data, one read fault each.
    pub fn faulted(&self) -> impl Iterator<Item = PageId> + '_ {
        self.pages.iter().filter(|(_, f)| *f).map(|(pid, _)| *pid)
    }
}

/// A synchronisation object with a manager. A lock and a semaphore with
/// the same id are different objects.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SyncId {
    /// Mutex lock.
    Lock(u32),
    /// Semaphore.
    Sema(u32),
    /// The barrier, managed by node 0.
    Barrier,
}

/// Manager-side state of one lock or semaphore: free permits and the
/// nodes waiting for one. A lock is a semaphore whose one permit starts
/// free.
///
/// Waiters are granted in **virtual-request-time order**: on the real
/// platform the manager serves requests in network arrival order, and in
/// a virtual-time simulation the request's virtual timestamp is the
/// faithful stand-in for that (host-thread scheduling order is noise
/// uncorrelated with simulated time).
#[derive(Debug)]
pub struct MgrQueue {
    /// Permits free to take: signals not yet consumed, or 1 for a free
    /// lock.
    pub permits: u64,
    /// Waiting requests: (virtual request time, node, vector clock).
    pub waiters: Vec<(u64, usize, VectorClock)>,
}

impl MgrQueue {
    /// A wait by `node`: take a free permit (`true`, grant now) or queue.
    pub fn wait(&mut self, req_vt: u64, node: usize, vc: &VectorClock) -> bool {
        if self.permits > 0 {
            self.permits -= 1;
            return true;
        }
        self.waiters.push((req_vt, node, vc.clone()));
        false
    }

    /// A signal: hand the permit to the earliest waiter by `(req_vt,
    /// node)`, returned with its clock, or bank it.
    pub fn signal(&mut self) -> Option<(usize, VectorClock)> {
        let waiters = self.waiters.iter().enumerate();
        let Some((i, _)) = waiters.min_by_key(|(_, (vt, node, _))| (*vt, *node)) else {
            self.permits += 1;
            return None;
        };
        let (_, node, vc) = self.waiters.swap_remove(i);
        Some((node, vc))
    }
}

/// One node's arrival at the barrier, as the manager keeps it until the
/// last one arrives.
#[derive(Debug)]
pub struct Arrival {
    /// The arriving node.
    pub node: usize,
    /// The episode is a region's join.
    pub join: bool,
    /// Its release: the notices the manager applies once every node has
    /// arrived (with its processed clock, the departure's filter), its
    /// subscriptions and its diffs.
    pub rel: Release,
    /// Its cached diff storage (GC trigger input).
    pub diff_bytes: u64,
    /// The reduction partials it contributed since its last arrival.
    pub partials: Vec<Partial>,
}

/// A sync object's riders as its manager keeps them: who subscribes to
/// what, and the diffs releases attached, until every subscriber of a
/// diff's page has been granted past it.
#[derive(Debug, Default)]
pub struct Riders {
    /// Each node's pages under the object, ascending, as its last release
    /// reported them (absent when empty).
    pub subscribed: BTreeMap<usize, Vec<PageId>>,
    /// Attached diffs, each with the subscribers of its page not yet
    /// granted the object since it was attached.
    pub kept: Vec<(Update, Vec<usize>)>,
}

impl Riders {
    /// Record `src`'s subscriptions, as its release reported them.
    pub fn subscribe(&mut self, src: usize, subscribed: Vec<PageId>) {
        if subscribed.is_empty() {
            self.subscribed.remove(&src);
        } else {
            self.subscribed.insert(src, subscribed);
        }
    }

    /// Keep each diff `src` attached for the other nodes that subscribe
    /// to the diff's page.
    pub fn attach(&mut self, src: usize, updates: Vec<Update>) {
        for update in updates {
            let subscribes = |(&k, pages): (&usize, &Vec<PageId>)| {
                (k != src && pages.binary_search(&update.0).is_ok()).then_some(k)
            };
            let owed: Vec<usize> = self.subscribed.iter().filter_map(subscribes).collect();
            if !owed.is_empty() {
                self.kept.push((update, owed));
            }
        }
    }

    /// The acquire of a grant to `dst` with `bundle`: the pages the
    /// other nodes subscribe to, and every kept diff owed to `dst` whose
    /// interval is in the bundle, meaning `seen`, the clock `dst`'s
    /// request reported, does not cover it (`None`: every diff owed).
    /// Owed means `dst` subscribes to the page, did not write the diff,
    /// and has not been granted the object since the diff was kept; a
    /// subscription changes only at its node's release, so no other kept
    /// diff meets the three. `dst` is then granted past every kept diff,
    /// and one owed to nobody is dropped.
    pub fn grant(
        &mut self,
        dst: usize,
        bundle: NoticeBundle,
        seen: Option<&VectorClock>,
    ) -> Acquire {
        let others = self.subscribed.iter().filter(|&(&k, _)| k != dst);
        let published: BTreeSet<PageId> = others.flat_map(|(_, p)| p.iter().copied()).collect();
        let mut updates = Vec::new();
        self.kept.retain_mut(|(update, owed)| {
            if let Some(i) = owed.iter().position(|&k| k == dst) {
                owed.swap_remove(i);
                let id = update.1;
                if !seen.is_some_and(|vc| vc.covers(id.node as usize, id.seq)) {
                    updates.push(update.clone());
                }
            }
            !owed.is_empty()
        });
        let published = published.into_iter().collect();
        Acquire {
            bundle,
            published,
            updates,
        }
    }
}

/// A sync object's riders as one node sees them.
#[derive(Debug, Default)]
pub struct Subscription {
    /// The pages this node took a read fault on under the object: every
    /// one for the barrier, and for a lock those taken while it was the
    /// one acquired last of those held. Sticky; a page is dropped at a
    /// release when the diffs the last acquire delivered for it are still
    /// held, meaning the page went unread.
    pub subscribed: BTreeSet<PageId>,
    /// The pages the other nodes subscribe to, as the last acquire
    /// published them (ascending): the next release attaches its diffs
    /// of them.
    pub published: Vec<PageId>,
    /// The diffs the last acquire delivered that the node holds.
    pub delivered: Vec<(PageId, IntervalId)>,
}

/// State for the manager roles this node plays (barrier manager on node
/// 0, lock/semaphore managers by id modulo node count).
#[derive(Debug, Default)]
pub struct ManagerState {
    /// Current barrier episode.
    pub barrier_epoch: u32,
    /// Arrived nodes for the episode.
    pub arrivals: Vec<Arrival>,
    /// Virtually latest arrival of the episode: the release is pinned at
    /// or after this instant, whatever host order the arrivals were
    /// processed in.
    pub barrier_last_arrive_vt: u64,
    /// Nodes that completed GC validation this episode.
    pub gc_done: usize,
    /// A GC round is decided and not yet complete. A join's runs at the
    /// next fork.
    pub gc_in_progress: bool,
    /// Lock and semaphore queues.
    pub queues: HashMap<SyncId, MgrQueue>,
    /// Lock riders, kept across tenures, and under `SyncId::Barrier` a
    /// join's, kept for the next fork (an interior barrier's live one
    /// episode, in `service::release_barrier`).
    pub riders: HashMap<SyncId, Riders>,
    /// Condition-variable wait queues, keyed by (lock, cond).
    pub conds: HashMap<(u32, u32), VecDeque<(usize, VectorClock)>>,
}

impl ManagerState {
    /// The queue of `obj`, made on first use: a lock's one permit starts
    /// free, a semaphore has none.
    pub fn queue(&mut self, obj: SyncId) -> &mut MgrQueue {
        self.queues.entry(obj).or_insert_with(|| MgrQueue {
            permits: u64::from(matches!(obj, SyncId::Lock(_))),
            waiters: Vec::new(),
        })
    }
}

/// All mutable per-node DSM state.
pub struct NodeState {
    /// This node's id.
    pub id: usize,
    /// Number of nodes.
    pub n: usize,
    /// System configuration.
    pub cfg: TmkConfig,
    /// The global allocation table.
    pub alloc: Arc<AllocTable>,
    /// This node's virtual clock (shared with the endpoint).
    pub clock: Arc<VirtualClock>,
    /// Flat local mirror of the global shared address space.
    pub mem: Vec<u8>,
    /// Page metadata, indexed by page id.
    pub pages: Vec<PageMeta>,
    /// Promise clock: intervals we know exist. Raised by merging received
    /// bundles' `vc`; some covered intervals' notices may still be in
    /// flight to us on another channel.
    pub vc: VectorClock,
    /// Processed clock: per source, the contiguous frontier of intervals
    /// whose notices we have actually logged. This — never the promise
    /// clock — is what we report to managers as our knowledge, so bundles
    /// filtered against it can only omit notices we genuinely hold.
    pub processed_vc: VectorClock,
    /// Acquired clock: what this node's application thread has acquired
    /// (the clocks of the bundles it applied at lock, semaphore and
    /// condition grants, barrier departures and forks), plus its own
    /// intervals. Unlike `vc` it leaves out what the service thread
    /// merged for this node's manager roles, which the application's
    /// writes cannot have depended on. Closed intervals carry it as the
    /// timestamp that decides domination.
    pub acquired: VectorClock,
    /// Intervals logged out of order, ahead of the processed frontier
    /// (per source). Absorbed into `processed_vc` as gaps fill.
    pub ooo: Vec<std::collections::BTreeSet<u32>>,
    /// Sequence number the *open* interval will get when it closes.
    pub next_seq: u32,
    /// Pages twinned in the open interval.
    pub dirty: Vec<PageId>,
    /// Every interval we know about (ours and peers'), trimmed at GC.
    /// Records are shared with the bundles that carry them.
    pub interval_log: BTreeMap<(u32, u32), Arc<IntervalInfo>>,
    /// Conservative estimate of each peer's vector clock (what we know
    /// they know) — used to filter notice bundles for manager-mediated
    /// releases (semaphores, flush, barrier arrival, fork).
    pub known_vc: Vec<VectorClock>,
    /// Bytes of cached diffs (GC trigger input).
    pub diff_store_bytes: u64,
    /// GC epoch (incremented on GcComplete).
    pub gc_epoch: u32,
    /// Locks this node's application thread currently holds, in
    /// acquire order (the authoritative state lives at the managers): a
    /// read fault subscribes its page to the last one.
    pub held_locks: Vec<u32>,
    /// This node's subscriptions: to the barrier, and by lock.
    pub subs: HashMap<SyncId, Subscription>,
    /// Our last interval closed at or before the last arrival: later
    /// ones are the next arrival's to attach.
    pub arrived_seq: u32,
    /// Reduction partials contributed since the last arrival, which
    /// carries them to the barrier manager.
    pub partials: Vec<Partial>,
    /// The partials the barrier manager's departures delivered to this
    /// node (node 0 only), appended departure by departure until the
    /// master takes a site's ([`crate::Tmk::take_partials`]).
    pub gathered: Vec<Gathered>,
    /// Manager-role state.
    pub mgr: ManagerState,
    /// Cluster-lifetime metrics block (survives job-boundary resets);
    /// holds the node's protocol event counters ([`NodeState::count`]).
    pub metrics: Arc<NodeMetrics>,
    /// Whether the caller currently mutating this state is the protocol
    /// service thread (charges CPU-timeline) or the application thread.
    pub in_service: bool,
}

impl NodeState {
    /// Fresh state for node `id`.
    pub fn new(
        id: usize,
        cfg: TmkConfig,
        alloc: Arc<AllocTable>,
        clock: Arc<VirtualClock>,
        metrics: Arc<NodeMetrics>,
    ) -> Self {
        let n = cfg.nodes();
        NodeState {
            id,
            n,
            cfg,
            alloc,
            clock,
            mem: Vec::new(),
            pages: Vec::new(),
            vc: VectorClock::zero(n),
            processed_vc: VectorClock::zero(n),
            acquired: VectorClock::zero(n),
            ooo: vec![std::collections::BTreeSet::new(); n],
            next_seq: 1,
            dirty: Vec::new(),
            interval_log: BTreeMap::new(),
            known_vc: vec![VectorClock::zero(n); n],
            diff_store_bytes: 0,
            gc_epoch: 0,
            held_locks: Vec::new(),
            subs: HashMap::new(),
            arrived_seq: 0,
            partials: Vec::new(),
            gathered: Vec::new(),
            mgr: ManagerState::default(),
            metrics,
            in_service: false,
        }
    }

    /// Wipe everything back to the just-built state (warm-cluster job
    /// boundary): pages, twins, diffs, vector clocks, interval logs,
    /// and manager queues. The shared allocation table and virtual clock
    /// are reset separately by the cluster reset protocol; the event
    /// counters live in the lifetime metrics block and are never reset.
    pub fn reset(&mut self) {
        *self = NodeState::new(
            self.id,
            self.cfg.clone(),
            self.alloc.clone(),
            self.clock.clone(),
            self.metrics.clone(),
        );
    }

    /// Count `n` protocol events of kind `op` on the node's one counter
    /// for it (per-job statistics are boundary deltas of that counter).
    /// A relaxed atomic add — no clocks, no locks, no allocation.
    #[inline]
    pub fn count(&self, op: TmkOp, n: u64) {
        self.metrics.op(op).add(n);
    }

    /// Charge modeled CPU work in the caller's context (application `vt`
    /// or service `cpu` timeline).
    fn charge(&self, ns: u64) {
        if self.in_service {
            self.clock.service_advance(ns);
        } else {
            self.clock.advance(ns);
        }
    }

    /// Manager node of `obj`.
    #[inline]
    pub fn manager_of(&self, obj: SyncId) -> usize {
        match obj {
            SyncId::Lock(id) | SyncId::Sema(id) => id as usize % self.n,
            SyncId::Barrier => 0,
        }
    }

    /// Grow the local memory mirror + page table to cover all allocations.
    pub fn sync_alloc(&mut self) {
        let hw = self.alloc.high_water() as usize;
        if self.mem.len() < hw {
            self.mem.resize(hw, 0);
        }
        let total = self.alloc.total_pages();
        if self.pages.len() < total {
            self.pages.resize_with(total, || PageMeta::new(0));
        }
    }

    /// Byte range of page `pid` within `mem`.
    #[inline]
    pub fn page_range(&self, pid: PageId) -> std::ops::Range<usize> {
        let ps = self.cfg.page_size;
        pid * ps..(pid + 1) * ps
    }

    // ---------------------------------------------------------------
    // Interval management
    // ---------------------------------------------------------------

    /// Close the open interval (a release). If no pages were written the
    /// interval is empty and nothing happens. Write-protects dirty pages,
    /// parks their twins for lazy diffing, and logs the interval.
    pub fn close_interval(&mut self) {
        if self.dirty.is_empty() {
            return;
        }
        let seq = self.next_seq;
        self.next_seq += 1;
        self.vc.0[self.id] = seq;
        self.processed_vc.0[self.id] = seq;
        self.acquired.0[self.id] = seq;
        let dirty = std::mem::take(&mut self.dirty);
        for &pid in &dirty {
            let meta = &mut self.pages[pid];
            debug_assert!(
                meta.pending.is_none(),
                "pending twin must be materialized before re-twinning"
            );
            let twin = meta.twin.take().expect("dirty page without twin");
            meta.pending = Some((seq, twin));
            // A dirty page is normally Write; it is Invalid when a
            // concurrent writer's notice arrived while our twin was open
            // (false sharing under the multiple-writer protocol) — then it
            // must stay Invalid so the next access fetches their diffs.
            meta.state = match meta.state {
                PageState::Write => PageState::ReadOnly,
                // Write-only pages become readable only if no notices are
                // outstanding; otherwise the next read must still fault.
                PageState::WritePush if meta.unapplied.is_empty() => PageState::ReadOnly,
                PageState::WritePush => PageState::Invalid,
                PageState::Invalid => PageState::Invalid,
                other => unreachable!("dirty page in odd state {other:?}"),
            };
        }
        self.interval_log.insert(
            (self.id as u32, seq),
            Arc::new(IntervalInfo {
                vc_sum: self.vc.sum(),
                vc: self.acquired.clone(),
                pages: dirty,
            }),
        );
        self.count(TmkOp::IntervalsClosed, 1);
    }

    /// Build the write-notice bundle for a receiver whose clock is
    /// (conservatively) `receiver_vc`: every interval we know that the
    /// receiver has not seen.
    ///
    /// The log is keyed `(node, seq)`, so writer `j`'s unseen intervals
    /// are one range past `receiver_vc[j]`; visiting writers in ascending
    /// order yields the log's own order. The cost is O(n + sent), not the
    /// length of the log.
    pub fn bundle_for(&self, receiver_vc: &VectorClock) -> NoticeBundle {
        debug_assert_eq!(receiver_vc.0.len(), self.n);
        let mut intervals = Vec::new();
        for (node, &seen) in receiver_vc.0.iter().enumerate() {
            let node = node as u32;
            let Some(first) = seen.checked_add(1) else {
                continue; // the receiver has seen everything `node` can write
            };
            intervals.extend(
                self.interval_log
                    .range((node, first)..=(node, u32::MAX))
                    .map(|(&(node, seq), info)| (IntervalId { node, seq }, info.clone())),
            );
        }
        NoticeBundle {
            intervals,
            vc: self.vc.clone(),
            pvc: self.processed_vc.clone(),
        }
    }

    /// A release to `dst`: the bundle of every interval `dst` is not
    /// known to hold. `dst` is then known to hold our processed clock,
    /// which later bundles to it are filtered against.
    pub fn release_to(&mut self, dst: usize) -> NoticeBundle {
        let bundle = self.bundle_for(&self.known_vc[dst]);
        self.known_vc[dst].merge(&self.processed_vc);
        bundle
    }

    /// A grant to `dst`, whose request reported clock `vc`: as
    /// [`NodeState::release_to`], filtered against `vc`.
    pub fn grant_to(&mut self, dst: usize, vc: &VectorClock) -> NoticeBundle {
        let bundle = self.bundle_for(vc);
        self.known_vc[dst].merge(&self.processed_vc);
        bundle
    }

    /// Incorporate a received notice bundle (the acquire side of a
    /// release→acquire edge): log unseen intervals, invalidate their
    /// pages, and merge clocks. `from` is the sending node, whose
    /// knowledge estimate is also raised.
    pub fn apply_bundle(&mut self, from: usize, bundle: &NoticeBundle) {
        self.sync_alloc();
        for (id, info) in &bundle.intervals {
            if id.node as usize == self.id {
                continue; // our own interval reflected back
            }
            // Deduplicate by interval-log membership, NOT by vector-clock
            // coverage: our clock may already cover an interval whose
            // notices are still in flight to us (e.g. a lock grant racing
            // a barrier arrival that was filtered against it). The clock
            // means "promised"; the log means "processed".
            if self.interval_log.contains_key(&(id.node, id.seq)) {
                continue;
            }
            for &pid in &info.pages {
                self.invalidate(
                    pid,
                    NoticeRec {
                        id: *id,
                        vc_sum: info.vc_sum,
                    },
                );
            }
            self.interval_log.insert((id.node, id.seq), info.clone());
            self.note_processed(id.node, id.seq);
        }
        self.vc.merge(&bundle.vc);
        // Acknowledge only the sender's *processed* clock: its promise
        // clock may cover intervals whose notices are still in flight to
        // it, and treating those as transferable knowledge lets a later
        // filtered bundle omit a notice this chain never delivers.
        self.known_vc[from].merge(&bundle.pvc);
    }

    /// The application thread's acquire: apply a grant's, departure's or
    /// fork's bundle and acquire its clock (see `acquired`).
    pub fn acquire(&mut self, from: usize, bundle: &NoticeBundle) {
        self.apply_bundle(from, bundle);
        self.acquired.merge(&bundle.vc);
    }

    /// Advance the processed frontier for `node` past `seq`, absorbing any
    /// out-of-order intervals that now connect.
    fn note_processed(&mut self, node: u32, seq: u32) {
        let j = node as usize;
        let f = &mut self.processed_vc.0[j];
        if seq == *f + 1 {
            *f = seq;
            while self.ooo[j].remove(&(*f + 1)) {
                *f += 1;
            }
        } else if seq > *f {
            self.ooo[j].insert(seq);
        }
    }

    /// Record a write notice against a page and invalidate the local copy.
    fn invalidate(&mut self, pid: PageId, rec: NoticeRec) {
        self.count(TmkOp::Invalidations, 1);
        let meta = &mut self.pages[pid];
        meta.unapplied.push(rec);
        match meta.state {
            PageState::ReadOnly => meta.state = PageState::Invalid,
            PageState::Write => {
                // Multiple-writer: keep our open twin; our writes and the
                // remote writes to this page are to disjoint bytes in a
                // race-free program. The copy is stale until we fault.
                meta.state = PageState::Invalid;
            }
            // Already unreadable; keeps collecting local writes.
            PageState::WritePush => {}
            PageState::Invalid | PageState::Unmapped => {}
        }
    }

    // ---------------------------------------------------------------
    // Synchronisation: the application thread's halves
    // ---------------------------------------------------------------

    /// The request half of a lock acquire or semaphore wait: the message
    /// to `obj`'s manager, with our processed clock (the grant's filter)
    /// and our virtual time (the grant order).
    pub fn wait_request(&self, obj: SyncId) -> (usize, Msg) {
        let mgr = self.manager_of(obj);
        let (vc, req_vt) = (self.processed_vc.clone(), self.clock.now());
        let msg = match obj {
            SyncId::Lock(lock) => {
                assert!(
                    !self.held_locks.contains(&lock),
                    "recursive lock_acquire({lock})"
                );
                self.count(TmkOp::LockAcquires, 1);
                if mgr == self.id {
                    self.count(TmkOp::LockAcquiresLocal, 1);
                }
                Msg::LockAcq { lock, vc, req_vt }
            }
            SyncId::Sema(sema) => Msg::SemaWait { sema, vc, req_vt },
            SyncId::Barrier => unreachable!("a barrier arrives, it is not waited for"),
        };
        (mgr, msg)
    }

    /// The request half of a release to `obj`'s manager: a lock release,
    /// a semaphore signal, or, with `cond`, a wait on that condition
    /// variable, which releases lock `obj`. Closes the interval and sends
    /// the manager the notices it lacks; a lock release carries them in a
    /// [`NodeState::release`] of the interval it closes.
    pub fn signal_request(&mut self, obj: SyncId, cond: Option<u32>) -> (usize, Msg) {
        if let SyncId::Lock(lock) = obj {
            let held = self.held_locks.iter().rposition(|&l| l == lock);
            let held = held.unwrap_or_else(|| panic!("release of lock {lock} without holding it"));
            self.held_locks.remove(held);
        }
        let first = self.next_seq;
        self.close_interval();
        let msg = match (obj, cond) {
            (SyncId::Lock(lock), None) => Msg::LockRelease {
                lock,
                rel: self.release(obj, first),
            },
            (SyncId::Lock(lock), Some(cond)) => {
                self.count(TmkOp::CondWaits, 1);
                let rel = self.release(obj, first);
                Msg::CondWait { lock, cond, rel }
            }
            (SyncId::Sema(sema), None) => {
                self.count(TmkOp::SemaSignals, 1);
                let bundle = self.release_to(self.manager_of(obj));
                Msg::SemaSignal { sema, bundle }
            }
            _ => unreachable!("a condition variable waits on a lock, and a barrier arrives"),
        };
        (self.manager_of(obj), msg)
    }

    /// A release to `obj`'s manager of our intervals from seq `first` on
    /// (for a barrier, those since the last arrival; for a lock, the one
    /// the release closes): the notices the manager lacks, our
    /// subscriptions under `obj` less each page whose diffs the last
    /// acquire delivered are still held (it went unread since, and is
    /// delivered nothing more), and our diffs of the pages that acquire
    /// published, their pending twins materialized.
    fn release(&mut self, obj: SyncId, first: u32) -> Release {
        let sub = self.subs.entry(obj).or_default();
        for (pid, id) in std::mem::take(&mut sub.delivered) {
            if self.pages[pid].held().any(|(h, _)| h == id) {
                sub.subscribed.remove(&pid);
            }
        }
        let subscribed = sub.subscribed.iter().copied().collect();
        let published = std::mem::take(&mut sub.published);
        let me = self.id as u32;
        let written: Vec<(PageId, IntervalId)> = self
            .interval_log
            .range((me, first)..=(me, u32::MAX))
            .flat_map(|(&(node, seq), info)| {
                let pages = info.pages.iter();
                let pages = pages.filter(|pid| published.binary_search(pid).is_ok());
                pages.map(move |&pid| (pid, IntervalId { node, seq }))
            })
            .collect();
        let mut updates = Vec::with_capacity(written.len());
        for (pid, id) in written {
            if matches!(self.pages[pid].pending, Some((seq, _)) if seq == id.seq) {
                self.materialize_pending(pid);
            }
            let diff = self.pages[pid].diffs[&id].clone();
            self.count(TmkOp::DiffBytesAttached, diff.wire_bytes() as u64);
            updates.push((pid, id, diff));
        }
        let bundle = self.release_to(self.manager_of(obj));
        Release {
            bundle,
            subscribed,
            updates,
        }
    }

    /// The reply half of a lock acquire, semaphore wait or condition
    /// wait: check that `msg` grants `obj` and acquire it, a lock grant
    /// through [`NodeState::take_acquire`].
    pub fn on_grant(&mut self, obj: SyncId, src: usize, msg: Msg) {
        match msg {
            Msg::LockGrant { lock, acq } if obj == SyncId::Lock(lock) => {
                self.take_acquire(obj, src, acq);
                self.held_locks.push(lock);
            }
            Msg::SemaGrant { sema, bundle } if obj == SyncId::Sema(sema) => {
                self.acquire(src, &bundle);
                self.count(TmkOp::SemaWaits, 1);
            }
            other => panic!("expected a grant of {obj:?}, got {}", other.kind()),
        }
    }

    /// An acquire of `obj` from `src`: acquire the bundle, hold the
    /// delivered diffs its notices ask for ([`NodeState::hold`]), and
    /// keep the published pages and the held diffs for the next release.
    fn take_acquire(&mut self, obj: SyncId, src: usize, acq: Acquire) {
        self.acquire(src, &acq.bundle);
        let delivered = self.hold(acq.updates);
        let sub = self.subs.entry(obj).or_default();
        sub.published = acq.published;
        sub.delivered = delivered;
    }

    /// A read fault on `pid`: subscribe it to barrier updates and, in a
    /// lock tenure, to the updates of the lock acquired last.
    pub fn subscribe(&mut self, pid: PageId) {
        let lock = self.held_locks.last().map(|&lock| SyncId::Lock(lock));
        for obj in std::iter::once(SyncId::Barrier).chain(lock) {
            self.subs.entry(obj).or_default().subscribed.insert(pid);
        }
    }

    /// Hold each delivered diff whose notice its page holds unapplied, in
    /// the page's `diffs` map: nothing is applied and the page stays
    /// invalid until a fault applies it with the rest of the page's set.
    /// Returns the held `(page, interval)`s.
    pub(crate) fn hold(&mut self, updates: Vec<Update>) -> Vec<(PageId, IntervalId)> {
        let mut held = Vec::new();
        for (pid, id, diff) in updates {
            let meta = &mut self.pages[pid];
            if meta.unapplied.iter().any(|r| r.id == id) {
                meta.diffs.insert(id, diff);
                held.push((pid, id));
            }
        }
        held
    }

    /// The request half of a condition signal (with `all`, a broadcast)
    /// on `cond` under `lock`: the lock's manager moves the waiters to
    /// the lock queue as of our virtual time.
    pub fn notify_request(&self, lock: u32, cond: u32, all: bool) -> (usize, Msg) {
        debug_assert!(
            self.held_locks.contains(&lock),
            "cond_signal/cond_broadcast outside critical section {lock}"
        );
        let req_vt = self.clock.now();
        let msg = if all {
            self.count(TmkOp::CondBroadcasts, 1);
            Msg::CondBroadcast { lock, cond, req_vt }
        } else {
            self.count(TmkOp::CondSignals, 1);
            Msg::CondSignal { lock, cond, req_vt }
        };
        (self.manager_of(SyncId::Lock(lock)), msg)
    }

    /// The request half of an OpenMP `flush`: close the interval and send
    /// every other node the notices it is not known to hold, each one
    /// acked (`FlushAck`).
    pub fn flush_request(&mut self) -> Vec<(usize, Msg)> {
        self.close_interval();
        self.count(TmkOp::Flushes, 1);
        let (me, mut notices) = (self.id, Vec::new());
        for p in (0..self.n).filter(|&p| p != me) {
            let bundle = self.release_to(p);
            notices.push((p, Msg::FlushNotice { bundle }));
        }
        notices
    }

    /// The request half of arriving at barrier episode `epoch`: close the
    /// interval and send the barrier manager, node 0, a
    /// [`NodeState::release`] of our intervals since the last arrival,
    /// our diff storage as the attach left it, and the reduction partials
    /// contributed since the last arrival. With `join`, the episode is a
    /// region's join, which a slave completes here: its departure is the
    /// next fork ([`NodeState::on_fork`]).
    pub fn arrive_request(&mut self, epoch: u32, join: bool) -> (usize, Msg) {
        self.close_interval();
        let first = std::mem::replace(&mut self.arrived_seq, self.next_seq - 1) + 1;
        let rel = self.release(SyncId::Barrier, first);
        let mgr = self.manager_of(SyncId::Barrier);
        if join && self.id != mgr {
            self.count(TmkOp::Barriers, 1);
        }
        let msg = Msg::BarrierArrive {
            epoch,
            join,
            rel,
            diff_bytes: self.diff_store_bytes,
            partials: std::mem::take(&mut self.partials),
        };
        (mgr, msg)
    }

    /// The reply half of a barrier: check that `msg` departs `epoch`,
    /// take its acquire ([`NodeState::take_acquire`]), append the
    /// gathered reduction partials, and return the GC snapshot clock when
    /// the departure starts a GC round: the bundle's clock, which the
    /// manager gives every node alike (one tenure builds all departures).
    pub fn on_depart(&mut self, epoch: u32, src: usize, msg: Msg) -> Option<VectorClock> {
        let Msg::BarrierDepart {
            epoch: e,
            acq,
            gc,
            partials,
        } = msg
        else {
            panic!("expected BarrierDepart, got {}", msg.kind())
        };
        assert_eq!(e, epoch, "barrier episode mismatch");
        let upto = gc.then(|| acq.bundle.pvc.clone());
        self.take_acquire(SyncId::Barrier, src, acq);
        self.gathered.extend(partials);
        self.count(TmkOp::Barriers, 1);
        upto
    }

    /// The request half of forking `region` (the master's): close the
    /// sequential section and build each slave's fork, its deferred
    /// departure from the last join. Its acquire is a grant of the join's
    /// riders ([`Riders::grant`], no bundle filter, as a departure) with
    /// every notice the slave lacks: `apply_bundle` raised its known
    /// clock to its arrival's, so that is the join's notices and the
    /// sequential section's. With no join pending (a job's first fork)
    /// the riders are empty. Also returns the GC snapshot clock when the
    /// join started a GC round: our processed clock, which every fork's
    /// bundle carries.
    pub fn fork_request(&mut self, region: &Region) -> (Vec<(usize, Msg)>, Option<VectorClock>) {
        self.close_interval();
        self.count(TmkOp::Forks, 1);
        let mut riders = self.mgr.riders.remove(&SyncId::Barrier).unwrap_or_default();
        let (gc, me) = (self.mgr.gc_in_progress, self.id);
        let forks = (0..self.n)
            .filter(|&p| p != me)
            .map(|p| {
                let acq = riders.grant(p, self.release_to(p), None);
                let region = region.clone();
                (p, Msg::Fork { region, acq, gc })
            })
            .collect();
        (forks, gc.then(|| self.processed_vc.clone()))
    }

    /// The reply half of a fork (a slave's): take its acquire
    /// ([`NodeState::take_acquire`]) as the departure from the last join,
    /// and return the GC snapshot clock when the join started a GC round:
    /// the bundle's processed clock, which the master gives every slave
    /// alike and takes as its own.
    pub fn on_fork(&mut self, src: usize, acq: Acquire, gc: bool) -> Option<VectorClock> {
        let upto = gc.then(|| acq.bundle.pvc.clone());
        self.take_acquire(SyncId::Barrier, src, acq);
        upto
    }

    // ---------------------------------------------------------------
    // Twins and diffs
    // ---------------------------------------------------------------

    /// Materialize the pending (closed, un-diffed) twin of `pid` into a
    /// cached diff. Charges the modeled diff-creation cost.
    pub fn materialize_pending(&mut self, pid: PageId) {
        let range = self.page_range(pid);
        let meta = &mut self.pages[pid];
        let Some((seq, twin)) = meta.pending.take() else {
            return;
        };
        // If an open twin exists it snapshots the page at the start of the
        // current interval, i.e. exactly the state the pending interval's
        // writes produced; otherwise the page itself is that state.
        let current: &[u8] = match &meta.twin {
            Some(open_twin) => open_twin,
            None => &self.mem[range],
        };
        let diff = Arc::new(Diff::create(&twin, current));
        self.diff_store_bytes += diff.wire_bytes() as u64;
        let data_bytes = diff.data_bytes() as u64;
        let id = IntervalId {
            node: self.id as u32,
            seq,
        };
        meta.diffs.insert(id, diff);
        self.count(TmkOp::DiffsCreated, 1);
        self.count(TmkOp::DiffBytesCreated, data_bytes);
        self.charge(self.cfg.diff_create_ns);
    }

    /// Serve a `DiffReq`: return the diffs of `pid` we hold for the listed
    /// intervals, materializing the pending twin if it is among them. Our
    /// own are always there; a foreign one is there if we applied (and so
    /// retained) it, and is otherwise left out for the requester to fetch
    /// from its creator.
    pub fn serve_diffs(&mut self, pid: PageId, ids: &[IntervalId]) -> PageDiffs {
        self.sync_alloc();
        let me = self.id as u32;
        if let Some((seq, _)) = self.pages[pid].pending {
            if ids.contains(&IntervalId { node: me, seq }) {
                self.materialize_pending(pid);
            }
        }
        let meta = &self.pages[pid];
        ids.iter()
            .filter_map(|id| match meta.diffs.get(id) {
                Some(d) => Some((*id, d.clone())),
                None if id.node == me => panic!(
                    "node {me} asked for its own diff (page {pid}, seq {}) it does not have — \
                     GC/notice protocol invariant violated",
                    id.seq
                ),
                None => None,
            })
            .collect()
    }

    /// The fault plan for `pid`: which writers to ask for which of the
    /// page's missing diffs. Empty when nothing is missing.
    ///
    /// Only the writers of *maximal* notices are asked — those no other
    /// unapplied notice dominates. Every other notice goes to its creator
    /// when the creator is asked anyway, else to the latest maximal writer
    /// that dominates it: that writer validated the page, applying the
    /// diff, before it wrote. A lock chain over a page thus costs one
    /// request, while truly concurrent writers (false sharing between two
    /// barriers) are all asked in the same round.
    pub(crate) fn fault_plan(&self, pid: PageId) -> FaultPlan {
        let mut notices: Vec<&NoticeRec> = self.pages[pid].unapplied.iter().collect();
        // A dominating interval has a strictly larger timestamp sum, so in
        // descending order every notice meets its maximal dominators first.
        notices.sort_unstable_by_key(|r| std::cmp::Reverse((r.vc_sum, r.id.node, r.id.seq)));
        let mut maximal: Vec<(usize, &IntervalInfo)> = Vec::new();
        let mut plan: BTreeMap<usize, Vec<IntervalId>> = BTreeMap::new();
        for rec in notices {
            let creator = rec.id.node as usize;
            let target = if plan.contains_key(&creator) {
                creator
            } else if let Some(&(writer, _)) = maximal.iter().find(|(_, m)| m.dominates(rec.id)) {
                writer
            } else {
                maximal.push((creator, &*self.interval_log[&(rec.id.node, rec.id.seq)]));
                creator
            };
            plan.entry(target).or_default().push(rec.id);
        }
        plan.into_iter().collect()
    }

    /// One page's share of a fault: the diffs already held for its
    /// unapplied notices (delivered at a barrier or lock grant, or as a
    /// sibling), and its fault plan with the held ids removed, a request
    /// left empty dropped.
    fn page_requests(&self, pid: PageId) -> (PageDiffs, FaultPlan) {
        let held: PageDiffs = self.pages[pid]
            .held()
            .map(|(id, diff)| (id, diff.clone()))
            .collect();
        let mut plan = self.fault_plan(pid);
        if !held.is_empty() {
            for (_, ids) in &mut plan {
                ids.retain(|id| !held.iter().any(|(h, _)| h == id));
            }
            plan.retain(|(_, ids)| !ids.is_empty());
        }
        (held, plan)
    }

    /// A fault round over `pids`, pages with unapplied notices and a
    /// usable base: each page's held diffs, and one request per writer
    /// carrying every page's ids for it. The fault applies a page's held
    /// and fetched diffs together.
    ///
    /// With `siblings` (an application fault, not a GC validation), the
    /// request to writer `w` also names each *sibling*: a page `q` not
    /// in `pids`, written by an interval named to `w`, with unapplied
    /// notices and a usable base, whose own plan asks `w` for one of the
    /// named intervals. It carries `q`'s whole id list for `w`, the
    /// request a later fault on `q` would send; the reply is held
    /// ([`NodeState::hold`]) and `q` stays invalid.
    fn fault_requests(&self, pids: &[PageId], siblings: bool) -> (FaultPages, FaultRequests) {
        let mut held = FaultPages::new();
        let mut plans = Vec::with_capacity(pids.len());
        for &pid in pids {
            let (diffs, plan) = self.page_requests(pid);
            held.insert(pid, (Vec::new(), diffs));
            plans.push((pid, plan));
        }
        // A foreign id goes to its creator when the round asks the creator
        // anyway, for this page or another: a creator always holds its own
        // diffs, so the id never comes back short to cost a re-request.
        let asked: BTreeSet<usize> = plans
            .iter()
            .flat_map(|(_, plan)| plan.iter().map(|(w, _)| *w))
            .collect();
        let mut requests: BTreeMap<usize, Vec<(PageId, Vec<IntervalId>)>> = BTreeMap::new();
        for (pid, plan) in plans {
            let mut page: BTreeMap<usize, Vec<IntervalId>> = BTreeMap::new();
            for (w, ids) in plan {
                for id in ids {
                    let creator = id.node as usize;
                    let to = if asked.contains(&creator) { creator } else { w };
                    page.entry(to).or_default().push(id);
                }
            }
            for (w, ids) in page {
                held.get_mut(&pid).expect("a faulted page").0.extend(&ids);
                requests.entry(w).or_default().push((pid, ids));
            }
        }
        if siblings {
            let faulted: BTreeSet<PageId> = pids.iter().copied().collect();
            let mut plans: BTreeMap<PageId, FaultPlan> = BTreeMap::new();
            for (&w, pages) in &mut requests {
                let named: BTreeSet<IntervalId> = pages
                    .iter()
                    .flat_map(|(_, ids)| ids.iter().copied())
                    .collect();
                let written: BTreeSet<PageId> = named
                    .iter()
                    .filter_map(|id| self.interval_log.get(&(id.node, id.seq)))
                    .flat_map(|info| info.pages.iter().copied())
                    .collect();
                for q in written.difference(&faulted) {
                    let meta = &self.pages[*q];
                    if meta.unapplied.is_empty() || meta.base_lost {
                        continue;
                    }
                    let plan = plans.entry(*q).or_insert_with(|| self.page_requests(*q).1);
                    if let Some((_, ids)) = plan.iter().find(|(k, _)| *k == w) {
                        if ids.iter().any(|id| named.contains(id)) {
                            pages.push((*q, ids.clone()));
                        }
                    }
                }
            }
        }
        (held, requests.into_iter().collect())
    }

    /// The re-request round of a fault: per page, the ids of `wanted`
    /// that `got` lacks (a dominating writer had not applied them — it
    /// push-wrote, or the notice arrived while its twin was open), asked
    /// of their creator, who always holds its own diffs, one request per
    /// creator.
    fn missing_by_creator(pages: &FaultPages) -> FaultRequests {
        let mut requests: BTreeMap<usize, Vec<(PageId, Vec<IntervalId>)>> = BTreeMap::new();
        for (&pid, (wanted, got)) in pages {
            let mut page: BTreeMap<usize, Vec<IntervalId>> = BTreeMap::new();
            for id in wanted {
                if !got.iter().any(|(g, _)| g == id) {
                    page.entry(id.node as usize).or_default().push(*id);
                }
            }
            for (creator, ids) in page {
                requests.entry(creator).or_default().push((pid, ids));
            }
        }
        requests.into_iter().collect()
    }

    /// The request half of a read fault on `pids`: an application fault
    /// with `subscribe`, else a GC validation. Returns the fault and the
    /// sends of its first pass ([`NodeState::fault_pass`]); with none,
    /// the fault is over.
    pub fn fault_request(
        &mut self,
        pids: &[PageId],
        subscribe: bool,
    ) -> (Fault, Vec<(usize, Msg)>) {
        let pages = pids.iter().map(|&pid| (pid, false)).collect();
        let mut fault = Fault::default();
        (fault.pages, fault.subscribe) = (pages, subscribe);
        let sends = self.fault_pass(&mut fault);
        (fault, sends)
    }

    /// The reply half of a fault: take a `DiffRep`, or a `PageRep` and
    /// install its copy. The reply that completes a round returns the
    /// next sends: the ids the replies lacked, asked of their creators
    /// ([`NodeState::missing_by_creator`]), or else the next pass's.
    pub fn on_fault_reply(&mut self, fault: &mut Fault, msg: Msg) -> Vec<(usize, Msg)> {
        match msg {
            Msg::DiffRep { pages } => {
                for (pid, diffs) in pages {
                    match fault.by_page.get_mut(&pid) {
                        Some((_, got)) => got.extend(diffs),
                        None => fault
                            .siblings
                            .extend(diffs.into_iter().map(|(id, d)| (pid, id, d))),
                    }
                }
            }
            Msg::PageRep { page, epoch, bytes } => {
                let range = self.page_range(page);
                self.mem[range].copy_from_slice(&bytes);
                let meta = &mut self.pages[page];
                (meta.epoch, meta.base_lost) = (epoch, false);
                self.count(TmkOp::PageFetches, 1);
            }
            other => panic!("expected DiffRep/PageRep, got {}", other.kind()),
        }
        fault.owed -= 1;
        if fault.owed > 0 {
            return Vec::new();
        }
        let round = Self::missing_by_creator(&fault.by_page);
        if round.is_empty() {
            return self.fault_pass(fault);
        }
        self.count(TmkOp::DiffRefetches, round.len() as u64);
        fault.owed = round.len();
        round
            .into_iter()
            .map(|(w, pages)| (w, Msg::DiffReq { pages }))
            .collect()
    }

    /// End the fault's pass, if one is open: hold the siblings' diffs and
    /// apply each page's whole set. Then the next pass: a `PageReq` to
    /// the owner of each page whose base a GC dropped, subscribed, the
    /// [`NodeState::fault_requests`] of each with unapplied notices,
    /// subscribed, and each other page made readable. A pass whose diffs
    /// are all held ends at once, and one with nothing to do ends the
    /// fault, counting its read faults.
    fn fault_pass(&mut self, fault: &mut Fault) -> Vec<(usize, Msg)> {
        loop {
            self.hold(std::mem::take(&mut fault.siblings));
            for (pid, (_, got)) in std::mem::take(&mut fault.by_page) {
                fault.applied.push((pid, got.len()));
                self.apply_fetched(pid, got);
            }
            self.sync_alloc();
            let (mut sends, mut fetch) = (Vec::new(), Vec::new());
            for (pid, faulted) in &mut fault.pages {
                let (pid, meta) = (*pid, &self.pages[*pid]);
                if meta.base_lost {
                    debug_assert_ne!(meta.owner, self.id, "owner never full-fetches");
                    sends.push((meta.owner, Msg::PageReq { page: pid }));
                } else if !meta.unapplied.is_empty() {
                    fetch.push(pid);
                } else {
                    // Readable again, write-enabled if an open twin
                    // survived (the multiple-writer case).
                    if !meta.readable() {
                        let twin = meta.twin.is_some();
                        self.pages[pid].state = if twin {
                            PageState::Write
                        } else {
                            PageState::ReadOnly
                        };
                    }
                    continue;
                }
                if fault.subscribe {
                    self.subscribe(pid);
                }
                *faulted = true;
            }
            let (by_page, requests) = self.fault_requests(&fetch, fault.subscribe);
            fault.by_page = by_page;
            sends.extend(
                requests
                    .into_iter()
                    .map(|(w, pages)| (w, Msg::DiffReq { pages })),
            );
            fault.owed = sends.len();
            if fault.owed == 0 && fault.by_page.is_empty() {
                self.count(TmkOp::ReadFaults, fault.faulted().count() as u64);
            }
            if fault.owed > 0 || fault.by_page.is_empty() {
                return sends;
            }
        }
    }

    /// Apply the fetched diffs of `pid` in happens-before (linear-extension)
    /// order, clear their notices, and retain each diff to serve later
    /// faulting nodes. Every diff must answer one of the page's notices,
    /// and the caller passes a page's whole planned set at once: applying
    /// part of it could land an earlier overlapping diff on a later one.
    ///
    /// Incoming diffs are applied to the page **and to any twins** (open
    /// or pending). Twins are the baselines future local diffs are encoded
    /// against; leaving them stale would make our next diff carry stale
    /// copies of the remote writer's bytes, which — attributed to our
    /// interval — could overwrite that writer's *newer* rewrite of the
    /// same range at a third node (intervals concurrent with ours order
    /// arbitrarily). Updating the twins keeps diffs precise: they contain
    /// exactly the bytes this node wrote (as real TreadMarks does).
    pub fn apply_fetched(&mut self, pid: PageId, fetched: Vec<(IntervalId, Arc<Diff>)>) {
        let meta = &self.pages[pid];
        let mut fetched: Vec<(u64, IntervalId, Arc<Diff>)> = fetched
            .into_iter()
            .map(|(id, diff)| {
                let rec = meta.unapplied.iter().find(|r| r.id == id);
                let rec = rec.unwrap_or_else(|| panic!("fetched {id:?} for page {pid} unasked"));
                (rec.vc_sum, id, diff)
            })
            .collect();
        fetched.sort_by_key(|(vc_sum, id, _)| (*vc_sum, id.node, id.seq));
        let range = self.page_range(pid);
        let mut cost = 0u64;
        for (_, id, diff) in fetched {
            diff.apply(&mut self.mem[range.clone()]);
            cost += self.cfg.diff_apply_base_ns
                + self.cfg.diff_apply_per_byte_ns * diff.data_bytes() as u64;
            let retained = diff.wire_bytes() as u64;
            let meta = &mut self.pages[pid];
            if let Some(twin) = meta.twin.as_deref_mut() {
                diff.apply(twin);
            }
            if let Some((_, twin)) = meta.pending.as_mut() {
                diff.apply(twin);
            }
            meta.unapplied.retain(|r| r.id != id);
            meta.diffs.insert(id, diff);
            self.count(TmkOp::DiffsApplied, 1);
            self.count(TmkOp::DiffBytesRetained, retained);
        }
        if cost > 0 {
            self.charge(cost);
        }
    }

    /// Prepare `pid` for writing: materialize any pending diff, create the
    /// open-interval twin, and mark the page dirty. The page must already
    /// be readable.
    pub fn start_write(&mut self, pid: PageId) {
        debug_assert!(self.pages[pid].readable());
        if self.pages[pid].state == PageState::Write {
            return;
        }
        self.twin_page(pid, PageState::Write);
    }

    /// Write-only access ("push"): twin the page *without* fetching
    /// outstanding remote diffs. Local writes are still diffed precisely
    /// against the (possibly stale) twin; bytes outside them must not be
    /// read until an ordinary read fault brings the page up to date. This
    /// is the write-without-fetch optimization of Dwarkadas et al.,
    /// which the paper cites as the compiler support its prototype lacks.
    pub fn start_write_push(&mut self, pid: PageId) {
        let meta = &self.pages[pid];
        if meta.writable() {
            return;
        }
        debug_assert!(
            !meta.base_lost,
            "push-write to a GC-stale page must fault first"
        );
        if meta.twin.is_some() {
            // A notice applied by the service thread mid-interval took
            // the page Write -> Invalid but kept its open twin (see
            // `invalidate`). That twin is this interval's diff baseline
            // and the page is already dirty: twinning again would drop
            // the interval's earlier writes from the diff and list the
            // page twice.
            self.count(TmkOp::PushWrites, 1);
            self.pages[pid].state = PageState::WritePush;
            return;
        }
        let target = if meta.unapplied.is_empty() && meta.readable() {
            PageState::Write
        } else {
            self.count(TmkOp::PushWrites, 1);
            PageState::WritePush
        };
        self.twin_page(pid, target);
    }

    fn twin_page(&mut self, pid: PageId, state: PageState) {
        self.materialize_pending(pid);
        let range = self.page_range(pid);
        let meta = &mut self.pages[pid];
        meta.twin = Some(self.mem[range].to_vec().into_boxed_slice());
        meta.state = state;
        self.dirty.push(pid);
        self.count(TmkOp::TwinsCreated, 1);
        self.charge(self.cfg.twin_ns);
    }

    /// Serve a post-GC full-page request. Only the page's owner is asked.
    ///
    /// The served copy may already include intervals newer than the GC
    /// base (the owner's own writes, or diffs it applied since) and may
    /// still *miss* intervals the requester holds notices for — both are
    /// fine: the requester applies its outstanding diffs over the copy,
    /// and re-applying an included diff is idempotent. The only unusable
    /// state would be a lost base, which cannot happen to an owner
    /// (validated at GC time).
    pub fn serve_page(&mut self, pid: PageId) -> (u32, Arc<[u8]>) {
        self.sync_alloc();
        let range = self.page_range(pid);
        let meta = &self.pages[pid];
        debug_assert!(
            !meta.base_lost,
            "a page owner cannot have lost its own base"
        );
        self.charge(self.cfg.twin_ns); // one page copy
        self.count(TmkOp::PageServes, 1);
        (self.gc_epoch, Arc::from(&self.mem[range]))
    }

    // ---------------------------------------------------------------
    // Garbage collection support
    // ---------------------------------------------------------------

    /// Determine the post-GC owner of every page written since the last
    /// GC: the writer of the page's last interval in the linear extension,
    /// considering only intervals covered by `upto` — the vector clock of
    /// the triggering barrier's departure, which every node received
    /// identically. Nodes therefore agree without communication even when
    /// a manager node's service thread has already merged *newer*
    /// intervals (next-epoch barrier arrivals, lock releases) into its
    /// local log while its application thread was still inside the GC.
    pub fn compute_gc_owners(&self, upto: &VectorClock) -> BTreeMap<PageId, usize> {
        let mut owners: BTreeMap<PageId, (u64, u32, u32)> = BTreeMap::new();
        for (&(node, seq), info) in &self.interval_log {
            if !upto.covers(node as usize, seq) {
                continue;
            }
            for &pid in &info.pages {
                let key = (info.vc_sum, node, seq);
                let e = owners.entry(pid).or_insert(key);
                if key > *e {
                    *e = key;
                }
            }
        }
        owners
            .into_iter()
            .map(|(pid, (_, node, _))| (pid, node as usize))
            .collect()
    }

    /// Drop diffs (created and retained), pending twins, notices and
    /// interval-log entries covered by the GC round's snapshot clock
    /// `upto`; re-base every affected page. State from intervals *newer*
    /// than the snapshot — which can already be present on manager nodes
    /// whose service thread keeps applying bundles during the GC — is
    /// preserved: its notices stay unapplied and its log entries and diffs
    /// stay available for later fetches. (Locally created diffs and
    /// pending twins are always covered: this node's application thread
    /// sits at the GC barrier, so it cannot have opened a post-snapshot
    /// interval. A covered interval wrote its pages, so every page holding
    /// a covered diff is in `owners`.)
    pub fn apply_gc_complete(&mut self, owners: &BTreeMap<PageId, usize>, upto: &VectorClock) {
        self.gc_epoch += 1;
        let covered = |r: &NoticeRec| upto.covers(r.id.node as usize, r.id.seq);
        for (&pid, &owner) in owners {
            let meta = &mut self.pages[pid];
            meta.diffs
                .retain(|id, _| !upto.covers(id.node as usize, id.seq));
            meta.pending = None;
            meta.owner = owner;
            debug_assert!(meta.twin.is_none(), "open twin across a barrier GC");
            let covered_unapplied = meta.unapplied.iter().any(covered);
            if owner == self.id {
                debug_assert!(!covered_unapplied, "owner not validated before GC");
                meta.epoch = self.gc_epoch;
                meta.base_lost = false;
            } else if !covered_unapplied && meta.state != PageState::Unmapped {
                // Our copy already equals the owner's as of the snapshot
                // (it may still carry unapplied *post*-snapshot notices,
                // whose diffs remain fetchable): keep the base valid.
                meta.epoch = self.gc_epoch;
                meta.base_lost = false;
            } else {
                // Dropping un-fetched covered notices invalidates the local
                // base: the next touch must fetch the full page from the
                // owner (and then apply any post-snapshot diffs on top).
                meta.unapplied.retain(|r| !covered(r));
                meta.base_lost = true;
                meta.state = match meta.state {
                    PageState::Unmapped => PageState::Unmapped,
                    _ => PageState::Invalid,
                };
            }
        }
        self.interval_log
            .retain(|&(node, seq), _| !upto.covers(node as usize, seq));
        // Everything covered by the snapshot is incorporated into the
        // rebased pages cluster-wide: raise the processed frontier (and
        // the knowledge estimates) past it so covered intervals are never
        // re-requested, and drop now-absorbed out-of-order entries.
        self.processed_vc.merge(upto);
        for j in 0..self.n {
            loop {
                let next = self.processed_vc.0[j] + 1;
                if self.ooo[j].remove(&next) {
                    self.processed_vc.0[j] = next;
                } else {
                    break;
                }
            }
            let f = self.processed_vc.0[j];
            self.ooo[j].retain(|&s| s > f);
        }
        for kv in &mut self.known_vc {
            kv.merge(upto);
        }
        // A kept lock diff the snapshot covers is applied or dropped
        // everywhere, and no later grant's bundle holds its interval.
        for store in self.mgr.riders.values_mut() {
            store
                .kept
                .retain(|((_, id, _), _)| !upto.covers(id.node as usize, id.seq));
        }
        // Post-snapshot diffs survive the GC; recount what is actually
        // still cached.
        let me = self.id as u32;
        self.diff_store_bytes = self
            .pages
            .iter()
            .map(|m| m.diff_storage_bytes(me) as u64)
            .sum();
        self.count(TmkOp::GcRuns, 1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::world::{Strip, World};

    fn touch_write(st: &mut NodeState, pid: PageId, off: usize, val: u8) {
        // Simulate the accessor path: readable -> writable -> write.
        if st.pages[pid].state == PageState::Unmapped {
            st.pages[pid].state = PageState::ReadOnly;
        }
        st.start_write(pid);
        let r = st.page_range(pid);
        st.mem[r][off] = val;
    }

    #[test]
    fn empty_release_closes_no_interval() {
        let mut st = World::node(0, 2);
        st.close_interval();
        assert_eq!(st.vc.0[0], 0);
        assert!(st.interval_log.is_empty());
    }

    #[test]
    fn close_interval_parks_twin_and_logs() {
        let mut st = World::node(0, 2);
        touch_write(&mut st, 0, 10, 7);
        assert_eq!(st.pages[0].state, PageState::Write);
        st.close_interval();
        assert_eq!(st.vc.0[0], 1);
        assert_eq!(st.pages[0].state, PageState::ReadOnly);
        assert!(st.pages[0].twin.is_none());
        assert!(st.pages[0].pending.is_some());
        assert_eq!(st.interval_log[&(0, 1)].pages, vec![0]);
    }

    #[test]
    fn rewrite_after_close_materializes_pending_diff() {
        let mut st = World::node(0, 2);
        touch_write(&mut st, 0, 10, 7);
        st.close_interval();
        touch_write(&mut st, 0, 20, 9); // second interval twin
        let meta = &st.pages[0];
        assert!(meta.pending.is_none(), "pending materialized at re-twin");
        assert_eq!(meta.diffs.len(), 1);
        let d = &meta.diffs[&IntervalId { node: 0, seq: 1 }];
        assert_eq!(d.data_bytes(), 1, "only byte 10 changed in interval 1");
    }

    #[test]
    fn push_write_after_mid_interval_invalidate_keeps_the_open_twin() {
        let mut st = World::node(0, 2);
        touch_write(&mut st, 0, 10, 7); // A, under the interval's twin
        let rec = NoticeRec {
            id: IntervalId { node: 1, seq: 1 },
            vc_sum: 1,
        };
        st.invalidate(0, rec); // the service thread applies a remote notice
        assert_eq!(st.pages[0].state, PageState::Invalid);
        assert!(st.pages[0].twin.is_some(), "open twin survives");

        st.start_write_push(0);
        let r = st.page_range(0);
        st.mem[r][20] = 9; // B
        assert_eq!(st.pages[0].state, PageState::WritePush);
        assert_eq!(st.dirty, vec![0], "dirty lists the page once");
        assert_eq!(
            st.metrics.op(TmkOp::TwinsCreated).get(),
            1,
            "no second twin"
        );

        st.close_interval();
        assert_eq!(st.pages[0].state, PageState::Invalid, "notice still owed");
        let diffs = st.serve_diffs(0, &[IntervalId { node: 0, seq: 1 }]);
        let mut page = vec![0u8; st.cfg.page_size];
        diffs[0].1.apply(&mut page);
        assert_eq!((page[10], page[20]), (7, 9), "diff carries A and B");
        assert_eq!(diffs[0].1.data_bytes(), 2);
    }

    #[test]
    fn serve_diffs_materializes_lazily() {
        let mut st = World::node(0, 2);
        touch_write(&mut st, 1, 0, 3);
        st.close_interval();
        assert_eq!(st.metrics.op(TmkOp::DiffsCreated).get(), 0);
        let diffs = st.serve_diffs(1, &[IntervalId { node: 0, seq: 1 }]);
        assert_eq!(diffs.len(), 1);
        assert_eq!(st.metrics.op(TmkOp::DiffsCreated).get(), 1);
        assert!(diffs[0].1.data_bytes() == 1);
    }

    #[test]
    fn bundle_for_filters_by_receiver_knowledge() {
        let mut st = World::node(0, 3);
        touch_write(&mut st, 0, 0, 1);
        st.close_interval();
        touch_write(&mut st, 1, 0, 2);
        st.close_interval();
        let all = st.bundle_for(&VectorClock::zero(3));
        assert_eq!(all.intervals.len(), 2);
        let half = st.bundle_for(&VectorClock(vec![1, 0, 0]));
        assert_eq!(half.intervals.len(), 1);
        assert_eq!(half.intervals[0].0, IntervalId { node: 0, seq: 2 });
        let none = st.bundle_for(&VectorClock(vec![2, 0, 0]));
        assert!(none.intervals.is_empty());
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig { cases: 300, ..Default::default() })]
        #[test]
        fn bundle_for_equals_the_whole_log_filter(
            nodes in 2usize..6,
            id in 0usize..6,
            ops in proptest::collection::vec(0u32..1_000_000, 0..80),
            clocks in proptest::collection::vec(0u32..1_000_000, 6 * 8),
        ) {
            let mut st = World::node(id % nodes, nodes);
            for &op in &ops {
                let (kind, arg) = (op % 4, op / 4);
                match kind {
                    // Our own interval: contiguous seqs. Push-write, as
                    // the page may hold notices from earlier bundles.
                    0 => {
                        let pid = arg as usize % 4;
                        st.start_write_push(pid);
                        let r = st.page_range(pid);
                        st.mem[r][arg as usize % 64] ^= 1;
                        st.close_interval();
                    }
                    // A peer's bundle: any writer, seqs with gaps and out
                    // of order (duplicates and our own are skipped).
                    1 | 2 => {
                        let writer = arg % nodes as u32;
                        let seq = 1 + (arg / 8) % 40;
                        let bundle = NoticeBundle {
                            intervals: vec![(
                                IntervalId { node: writer, seq },
                                info(
                                    &(0..nodes as u32).map(|j| (arg >> j) % 7).collect::<Vec<_>>(),
                                    vec![arg as usize % 4],
                                ),
                            )],
                            vc: VectorClock::zero(nodes),
                            pvc: VectorClock::zero(nodes),
                        };
                        st.apply_bundle((st.id + 1) % nodes, &bundle);
                    }
                    // A GC round trims everything its snapshot covers.
                    _ => {
                        let upto = VectorClock(
                            (0..nodes).map(|j| (arg >> (3 * j)) % 24).collect(),
                        );
                        st.apply_gc_complete(&BTreeMap::new(), &upto);
                    }
                }
            }
            let top = |j: usize| {
                st.interval_log
                    .range((j as u32, 0)..=(j as u32, u32::MAX))
                    .next_back()
                    .map_or(0, |(&(_, seq), _)| seq)
            };
            let mut receivers = vec![
                VectorClock::zero(nodes),
                VectorClock((0..nodes).map(top).collect()),
                VectorClock(vec![u32::MAX; nodes]),
            ];
            // Mixed clocks: each component zero, just below / at the
            // writer's newest logged seq, arbitrary, or u32::MAX.
            for c in clocks.chunks_exact(nodes) {
                receivers.push(VectorClock(
                    c.iter()
                        .enumerate()
                        .map(|(j, &v)| match v % 5 {
                            0 => 0,
                            1 => top(j).saturating_sub(v / 5 % 3),
                            2 => v / 5 % 45,
                            3 => u32::MAX - v / 5 % 2,
                            _ => top(j),
                        })
                        .collect(),
                ));
            }
            for rvc in &receivers {
                let oracle: Vec<_> = st
                    .interval_log
                    .iter()
                    .filter(|((node, seq), _)| !rvc.covers(*node as usize, *seq))
                    .map(|(&(node, seq), info)| (IntervalId { node, seq }, info.clone()))
                    .collect();
                let bundle = st.bundle_for(rvc);
                proptest::prop_assert_eq!(&bundle.intervals, &oracle, "receiver {:?}", rvc);
                proptest::prop_assert_eq!(&bundle.vc, &st.vc);
                proptest::prop_assert_eq!(&bundle.pvc, &st.processed_vc);
            }
        }
    }

    /// Nodes in the domination proptest: with four, a faulting node can
    /// see two concurrent writers plus a third whose notice only one of
    /// them dominates — the case a wrong target choice shows up in.
    const WORLD: usize = 4;

    /// `world` after 200 steps from a seeded LCG, and each node's vt, cpu
    /// and diff storage, then the faults that sent requests and their
    /// `DiffReq`s, as `"ends | faults/sent"`.
    fn fixed_program(mut world: World, seed: u64) -> (World, String) {
        let mut x = seed;
        for _ in 0..200 {
            x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
            world.step((x >> 33) as u32 % 1_000_000);
        }
        let ends = world.nodes.iter().map(|st| {
            let (vt, cpu, diffs) = (st.clock.now(), st.clock.cpu_now(), st.diff_store_bytes);
            format!("{vt}/{cpu}/{diffs}")
        });
        let ends = ends.collect::<Vec<_>>().join(" ");
        let (faults, sent) = (world.requests.len(), world.requests.iter().sum::<usize>());
        (world, format!("{ends} | {faults}/{sent}"))
    }

    /// Run `ops` on `new` and `old` side by side: identical page bytes,
    /// states and notices after every step, the same reads and faults,
    /// and never more requests in a fault of `new`. With the same
    /// transit, also the same diff storage: serving a sibling
    /// materializes its writer's diffs.
    fn differential(mut new: World, mut old: World, ops: &[u32]) {
        for &op in ops {
            new.step(op);
            old.step(op);
            for (a, b) in new.nodes.iter().zip(&old.nodes) {
                proptest::prop_assert!(a.mem == b.mem, "node {} bytes after {:?}", a.id, op);
                for (pa, pb) in a.pages.iter().zip(&b.pages) {
                    proptest::prop_assert_eq!(pa.state, pb.state);
                    proptest::prop_assert_eq!(&pa.unapplied, &pb.unapplied);
                }
                // Arrivals materialize the diffs of published pages, and
                // a stripped run never drops a subscription.
                if new.strip == old.strip {
                    proptest::prop_assert_eq!(a.diff_store_bytes, b.diff_store_bytes);
                }
            }
        }
        proptest::prop_assert!(new.reads == old.reads, "a read returned other bytes");
        proptest::prop_assert_eq!(new.requests.len(), old.requests.len());
        for (n, o) in new.requests.iter().zip(&old.requests) {
            proptest::prop_assert!(n <= o, "{} requests where the oracle sent {}", n, o);
        }
    }

    // The dominating-writer plan against the per-writer one, over lock
    // chains, concurrent slot writes, push-writes, mid-interval notices,
    // region boundaries and GC on every third barrier or join, updates
    // stripped from both: no own-diff panic, and every fault applies its
    // page's whole set at once (`World::fault`). The dominated side keeps
    // its siblings, so each must be held under its own page.
    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig { cases: 300, ..Default::default() })]
        #[test]
        fn dominated_fetch_matches_the_per_writer_plan(
            ops in proptest::collection::vec(0u32..1_000_000, 0..120),
        ) {
            let world = || World { regions: true, gc_every: 3, ..World::new(WORLD) };
            let new = World { strip: Strip::Updates, partials: true, ..world() };
            let old = World { per_writer: true, strip: Strip::UpdatesAndSiblings, ..world() };
            differential(new, old, &ops);
        }
    }

    // Barrier and lock-grant updates against the pure-invalidate
    // protocol: the same programs on 2–4 nodes (lock steps alone, nested
    // and through a condition wait), GC at every barrier or every third,
    // once with the diffs attached to arrivals and releases and once
    // with them stripped in transit, reduction partials riding the
    // former's arrivals. Region boundaries join one-way and fork with the
    // join's riders, and a join's GC round runs at the fork. Held diffs
    // and partials change no byte read, page state or notice, and no fault
    // asks more.
    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig { cases: 300, ..Default::default() })]
        #[test]
        fn barrier_updates_match_the_pure_invalidate_protocol(
            n in 2usize..5,
            every_third in 0u32..2,
            ops in proptest::collection::vec(0u32..1_000_000, 0..160),
        ) {
            let gc_every = 1 + 2 * every_third;
            let world = || World { regions: true, gc_every, ..World::new(n) };
            let new = World { partials: true, ..world() };
            let old = World { strip: Strip::UpdatesAndSiblings, ..world() };
            differential(new, old, &ops);
        }
    }

    // Fixed programs, 200 steps from a seeded LCG, on 2, 3 and 4 nodes
    // (lock steps alone, nested and through a condition wait, barriers
    // carrying partials), GC at every barrier and at every third, against
    // what they did when recorded: per message kind, in name order, its
    // count and wire bytes (self-sends included), then each node's vt,
    // cpu and diff storage, then the faults that sent requests and their
    // `DiffReq`s. A refactor of the riders or of the fault must leave
    // every number as it is. Full copies and GC rounds go through
    // `PageReq` and `GcDone`, so a page serve is charged to its owner's
    // service clock, as in a threaded run.
    #[test]
    fn fixed_programs_keep_their_pinned_traffic_and_clocks() {
        // 2, 3 and 4 nodes with GC at every barrier, then at every third.
        let want = [
            "64/6020 64/5768 13/156 13/997 23/1026 23/544 64/512 64/512 52/1040 65/2750 \
             52/3149 29/119248 29/348 | 1001/260/0 859/240/13 | 34/23",
            "96/9003 96/12699 13/156 13/1174 19/857 19/488 96/768 96/768 51/1224 64/3795 \
             51/3983 50/205600 50/600 | 826/170/0 617/180/13 760/240/0 | 43/19",
            "144/13677 144/19925 11/132 11/1154 16/963 16/484 144/1152 144/1152 50/1400 \
             61/4309 50/4644 66/271392 66/792 | 450/170/35 513/140/0 450/170/0 617/220/52 \
             | 35/16",
            "68/5862 68/5365 9/108 9/729 21/851 21/492 20/160 20/160 45/900 54/2154 45/2769 \
             15/61680 15/180 | 802/160/141 990/160/106 | 41/21",
            "108/9170 108/10278 8/96 8/816 46/2181 46/1220 42/336 42/336 46/1104 54/2801 \
             46/3954 35/143920 35/420 | 409/100/0 544/160/0 884/250/0 | 53/46",
            "120/10622 120/13493 4/48 4/475 56/3240 56/1604 28/224 28/224 46/1288 50/3383 \
             46/4585 22/90464 22/264 | 394/40/0 358/60/13 396/40/13 453/210/53 | 65/56",
        ];
        for (i, want) in want.into_iter().enumerate() {
            let (n, gc_every) = (2 + i % 3, [1, 3][i / 3]);
            let world = World {
                gc_every,
                partials: true,
                ..World::new(n)
            };
            let (world, ends) = fixed_program(world, i as u64);
            let tally = world.tally(false);
            let kinds: Vec<&str> = tally.keys().copied().collect();
            let all = "barrier_arrive barrier_depart cond_signal cond_wait diff_rep diff_req \
                       gc_complete gc_done lock_acq lock_grant lock_rel page_rep page_req";
            assert_eq!(kinds.join(" "), all);
            let tally: Vec<_> = tally.values().map(|(m, b)| format!("{m}/{b}")).collect();
            let got = format!("{} | {ends}", tally.join(" "));
            assert_eq!(got, want, "{n} nodes, GC every {gc_every}");
        }
    }

    // Fixed programs with region boundaries (`World::region`), 200 steps
    // from a seeded LCG on 3 and 4 nodes, GC at every barrier or join and
    // at every third, pinned as the test above, each kind named: recorded
    // when the join became one-way, and again when `World` began to fault
    // as production does (the comment above).
    #[test]
    fn fixed_programs_with_regions_keep_their_pinned_traffic_and_clocks() {
        let want = [
            "barrier_arrive 177/13148 barrier_depart 119/10456 cond_signal 10/120 \
             cond_wait 10/862 diff_rep 14/555 diff_req 14/328 fork 58/5964 \
             gc_complete 177/1416 gc_done 177/1416 lock_acq 46/1104 lock_grant 56/2944 \
             lock_rel 46/3629 page_rep 58/238496 page_req 58/696 \
             | 895/330/0 548/130/0 587/200/0 | 36/14 | gc 59",
            "barrier_arrive 216/17678 barrier_depart 138/15713 cond_signal 8/96 \
             cond_wait 8/852 diff_rep 47/2338 diff_req 47/1292 fork 78/8907 \
             gc_complete 72/576 gc_done 72/576 lock_acq 48/1344 lock_grant 56/3733 \
             lock_rel 48/4630 page_rep 50/205600 page_req 50/600 \
             | 946/290/39 449/120/22 486/100/0 460/100/0 | 77/47 | gc 18",
        ];
        for (i, want) in want.into_iter().enumerate() {
            let (n, gc_every) = (3 + i, [1, 3][i]);
            let world = World {
                gc_every,
                partials: true,
                regions: true,
                ..World::new(n)
            };
            let (world, ends) = fixed_program(world, 7 + i as u64);
            let tally = world.tally(false);
            let tally: Vec<_> = tally
                .iter()
                .map(|(k, (m, b))| format!("{k} {m}/{b}"))
                .collect();
            let gc = world.nodes[0].gc_epoch;
            let got = format!("{} | {ends} | gc {gc}", tally.join(" "));
            assert_eq!(got, want, "{n} nodes, GC every {gc_every}");
        }
    }

    #[test]
    fn reset_drops_unsent_and_gathered_partials() {
        let mut st = World::node(0, 2);
        st.partials.push((1, vec![1]));
        st.gathered.push((2, 1, vec![2]));
        st.reset();
        assert!(st.partials.is_empty() && st.gathered.is_empty());
        let (_, arrive) = st.arrive_request(0, false);
        let Msg::BarrierArrive { partials, .. } = arrive else {
            panic!("expected an arrival")
        };
        assert!(partials.is_empty(), "a reset partial rode the next arrival");
    }

    #[test]
    fn apply_bundle_invalidates_and_merges() {
        let mut writer = World::node(0, 2);
        touch_write(&mut writer, 2, 5, 42);
        writer.close_interval();
        let bundle = writer.bundle_for(&VectorClock::zero(2));

        let mut reader = World::node(1, 2);
        reader.pages[2].state = PageState::ReadOnly; // previously read
        reader.apply_bundle(0, &bundle);
        assert_eq!(reader.pages[2].state, PageState::Invalid);
        assert_eq!(reader.pages[2].unapplied.len(), 1);
        assert!(reader.vc.covers(0, 1));
        // Duplicate delivery is a no-op.
        reader.apply_bundle(0, &bundle);
        assert_eq!(reader.pages[2].unapplied.len(), 1);
    }

    /// Log the interval `(node, seq)` with timestamp `vc` as a notice
    /// against `pid`, as `apply_bundle` would.
    fn notice(st: &mut NodeState, pid: PageId, node: u32, seq: u32, vc: &[u32]) -> IntervalId {
        notice_on(st, &[pid], node, seq, vc)
    }

    /// As [`notice`], for an interval that wrote every page of `pids`.
    fn notice_on(
        st: &mut NodeState,
        pids: &[PageId],
        node: u32,
        seq: u32,
        vc: &[u32],
    ) -> IntervalId {
        let id = IntervalId { node, seq };
        let bundle = NoticeBundle {
            intervals: vec![(id, info(vc, pids.to_vec()))],
            vc: VectorClock::zero(st.n),
            pvc: VectorClock::zero(st.n),
        };
        st.apply_bundle(node as usize, &bundle);
        id
    }

    #[test]
    fn a_fault_asks_each_writer_once_for_the_siblings_its_intervals_wrote() {
        // Node 0's interval 1 wrote pages 0 to 4, and its interval 2 page
        // 1 again; node 1 acquired interval 1, then wrote page 2. Node 3
        // lost page 3's base at a GC and has read page 4 already.
        let mut st = World::node(3, 4);
        let _ = st.alloc.alloc(st.cfg.page_size);
        st.sync_alloc();
        let a = notice_on(&mut st, &[0, 1, 2, 3, 4], 0, 1, &[1, 0, 0, 0]);
        let a2 = notice(&mut st, 1, 0, 2, &[2, 0, 0, 0]);
        let b = notice(&mut st, 2, 1, 1, &[1, 1, 0, 0]);
        st.pages[3].base_lost = true;
        st.pages[4].unapplied.clear();
        st.pages[4].state = PageState::ReadOnly;
        let ids = |held: FaultPages| -> Vec<(PageId, usize)> {
            held.into_iter()
                .map(|(pid, (_, d))| (pid, d.len()))
                .collect()
        };

        // A fault on page 0 asks node 0 for interval 1, and for page 1, a
        // sibling, with page 1's whole list for node 0. Page 2's plan asks
        // node 1, page 3 needs a full copy and page 4 is readable: none
        // is a sibling.
        let (held, requests) = st.fault_requests(&[0], true);
        assert_eq!(ids(held), [(0, 0)]);
        assert_eq!(requests, [(0, vec![(0, vec![a]), (1, vec![a2, a])])]);
        assert_eq!(st.fault_plan(2), [(1, vec![b, a])]);
        // A GC validation names no sibling.
        let (_, requests) = st.fault_requests(&[0], false);
        assert_eq!(requests, [(0, vec![(0, vec![a])])]);

        // Faulting pages 0 and 2 together asks each writer once; node 0,
        // asked anyway, gets page 2's interval 1 from its creator rather
        // than from node 1, which dominates it. A page of the round is no
        // sibling of another.
        let (_, requests) = st.fault_requests(&[0, 2], false);
        let want = [
            (0, vec![(0, vec![a]), (2, vec![a])]),
            (1, vec![(2, vec![b])]),
        ];
        assert_eq!(requests, want);
        let (_, requests) = st.fault_requests(&[0, 1], true);
        assert_eq!(requests, [(0, vec![(0, vec![a]), (1, vec![a2, a])])]);

        // A held diff leaves the plan: with page 1's interval-2 diff held,
        // its sibling entry carries interval 1 alone.
        let d = Arc::new(Diff::create(&[0u8; 8], &[1u8; 8]));
        assert_eq!(st.hold(vec![(1, a2, d)]), [(1, a2)]);
        let (_, requests) = st.fault_requests(&[0], true);
        assert_eq!(requests, [(0, vec![(0, vec![a]), (1, vec![a])])]);
    }

    #[test]
    fn fault_plan_groups_by_writer() {
        // Two concurrent writers: each is asked, in one round, for its own.
        let mut st = World::node(2, 3);
        let a1 = notice(&mut st, 0, 0, 1, &[1, 0, 0]);
        let b1 = notice(&mut st, 0, 1, 1, &[0, 1, 0]);
        let a2 = notice(&mut st, 0, 0, 2, &[2, 0, 0]);
        let plan = st.fault_plan(0);
        assert_eq!(plan, vec![(0, vec![a2, a1]), (1, vec![b1])]);
    }

    #[test]
    fn fault_plan_asks_only_the_dominating_writer() {
        // A lock chain 0 -> 1 -> 3 over page 0, plus node 1's older write:
        // node 3's interval dominates all of them, so it alone is asked.
        let mut st = World::node(4, 5);
        let a = notice(&mut st, 0, 0, 1, &[1, 0, 0, 0, 0]);
        let b1 = notice(&mut st, 0, 1, 1, &[0, 1, 0, 0, 0]);
        let b2 = notice(&mut st, 0, 1, 2, &[1, 2, 0, 0, 0]);
        let d = notice(&mut st, 0, 3, 1, &[1, 2, 0, 1, 0]);
        assert_eq!(st.fault_plan(0), vec![(3, vec![d, b2, b1, a])]);

        // A concurrent writer on the same page joins the round; the chain
        // still goes to its last writer, and the concurrent writer's own
        // older interval goes to it.
        let c1 = notice(&mut st, 0, 2, 1, &[0, 0, 1, 0, 0]);
        let c2 = notice(&mut st, 0, 2, 2, &[0, 1, 2, 0, 0]);
        let plan = st.fault_plan(0);
        assert_eq!(plan, vec![(2, vec![c2, c1]), (3, vec![d, b2, b1, a])]);
        assert!(st.fault_plan(1).is_empty(), "no notices, no plan");
    }

    #[test]
    fn short_replies_are_refetched_from_creators() {
        let d = Arc::new(Diff::create(&[0u8; 8], &[1u8; 8]));
        let (a, b, c) = (
            IntervalId { node: 0, seq: 1 },
            IntervalId { node: 1, seq: 4 },
            IntervalId { node: 1, seq: 5 },
        );
        // Page 0 asked for c, b and a and got b; page 2 asked for a and
        // got nothing: one request per creator, for both pages.
        let got = vec![(b, d.clone())];
        let short = BTreeMap::from([(0, (vec![c, b, a], got.clone())), (2, (vec![a], vec![]))]);
        assert_eq!(
            NodeState::missing_by_creator(&short),
            vec![
                (0, vec![(0, vec![a]), (2, vec![a])]),
                (1, vec![(0, vec![c])])
            ]
        );
        let whole = BTreeMap::from([(0, (vec![b], got))]);
        assert!(NodeState::missing_by_creator(&whole).is_empty());
    }

    #[test]
    fn serve_diffs_returns_retained_and_skips_unapplied_foreign_ids() {
        // Node 0 writes; node 1 applies it, writes on top, and is asked
        // for both: it serves its own diff and the retained one. Node 2's
        // interval it never saw is left out, not a panic.
        let mut w = World::new(3);
        w.write(0, 0, 10, 1);
        w.nodes[0].close_interval();
        w.deliver(0, 1, true);
        w.fault(1, &[0], true);
        let [a, b, _] = &mut w.nodes[..] else {
            unreachable!("three nodes")
        };
        let foreign = IntervalId { node: 0, seq: 1 };
        assert_eq!(
            b.metrics.op(TmkOp::DiffBytesRetained).get(),
            b.pages[0].diffs[&foreign].wire_bytes() as u64
        );
        assert_eq!(b.diff_store_bytes, 0, "retained diffs are not GC storage");
        touch_write(b, 0, 20, 2);
        b.close_interval();
        let own = IntervalId { node: 1, seq: 1 };
        let unseen = IntervalId { node: 2, seq: 1 };
        let served = b.serve_diffs(0, &[own, foreign, unseen]);
        let served_ids: Vec<IntervalId> = served.iter().map(|(id, _)| *id).collect();
        assert_eq!(served_ids, vec![own, foreign]);
        assert!(Arc::ptr_eq(&served[1].1, &a.pages[0].diffs[&foreign]));
    }

    #[test]
    #[should_panic(expected = "asked for its own diff")]
    fn serve_diffs_panics_on_a_missing_own_diff() {
        let mut st = World::node(0, 2);
        st.serve_diffs(0, &[IntervalId { node: 0, seq: 7 }]);
    }

    #[test]
    fn fetch_apply_roundtrip_between_nodes() {
        let mut w = World::new(2);
        w.write(0, 0, 100, 0xEE);
        w.nodes[0].close_interval();
        w.deliver(0, 1, true);
        let id = IntervalId { node: 0, seq: 1 };
        assert_eq!(w.nodes[1].fault_plan(0), [(0, vec![id])]);
        w.fault(1, &[0], true);
        let reader = &w.nodes[1];
        assert_eq!(reader.pages[0].state, PageState::ReadOnly);
        assert_eq!(reader.mem[reader.page_range(0)][100], 0xEE);
    }

    #[test]
    fn multiple_writer_false_sharing_preserves_local_writes() {
        // Node 0 and node 1 write disjoint halves of page 0 concurrently.
        let mut w = World::new(2);
        w.write(0, 0, 10, 1);
        w.write(1, 0, 2000, 2);
        w.nodes[0].close_interval();
        // Node 1 receives node 0's notice while its own twin is open.
        w.deliver(0, 1, false);
        assert_eq!(w.nodes[1].pages[0].state, PageState::Invalid);
        assert!(w.nodes[1].pages[0].twin.is_some(), "open twin survives");
        // It faults: fetches node 0's diff and applies it over its copy.
        w.fault(1, &[0], true);
        let b = &mut w.nodes[1];
        assert_eq!(b.pages[0].state, PageState::Write, "write twin restored");
        let r = b.page_range(0);
        assert_eq!(b.mem[r.clone()][10], 1, "remote write visible");
        assert_eq!(b.mem[r][2000], 2, "local write preserved");
        // b's eventual diff contains its own write.
        b.close_interval();
        let served = b.serve_diffs(0, &[IntervalId { node: 1, seq: 1 }]);
        assert!(served[0].1.data_bytes() >= 1);
    }

    fn info(vc: &[u32], pages: Vec<PageId>) -> Arc<IntervalInfo> {
        let vc = VectorClock(vc.to_vec());
        Arc::new(IntervalInfo {
            vc_sum: vc.sum(),
            vc,
            pages,
        })
    }

    #[test]
    fn gc_owner_is_last_writer_in_linear_order() {
        let mut st = World::node(0, 3);
        st.interval_log.insert((0, 1), info(&[1, 0, 0], vec![0, 1]));
        st.interval_log.insert((1, 1), info(&[2, 1, 2], vec![0]));
        st.interval_log.insert((2, 1), info(&[1, 1, 1], vec![1]));
        let owners = st.compute_gc_owners(&VectorClock(vec![1, 1, 1]));
        assert_eq!(owners[&0], 1, "vc_sum 5 beats 1");
        assert_eq!(owners[&1], 2, "vc_sum 3 beats 1");
    }

    #[test]
    fn gc_owner_computation_ignores_post_snapshot_intervals() {
        // A manager node's service thread can merge next-epoch intervals
        // into the log while the GC is still in flight; the owner map must
        // come out as if only snapshot-covered intervals existed, or nodes
        // would disagree about post-GC page owners.
        let mut st = World::node(0, 3);
        st.interval_log.insert((0, 1), info(&[1, 0, 0], vec![0]));
        st.interval_log.insert((1, 1), info(&[1, 1, 0], vec![0]));
        // Premature: node 2's interval 1 arrived after the snapshot.
        st.interval_log.insert((2, 1), info(&[4, 4, 1], vec![0, 2]));
        let snapshot = VectorClock(vec![1, 1, 0]);
        let owners = st.compute_gc_owners(&snapshot);
        assert_eq!(owners[&0], 1, "premature interval must not win ownership");
        assert!(
            !owners.contains_key(&2),
            "page only in premature interval is not GC'd"
        );
    }

    #[test]
    fn gc_complete_rebases_pages() {
        let mut st = World::node(1, 2);
        // Page 0: we have a valid copy — stays valid at the new epoch.
        st.pages[0].state = PageState::ReadOnly;
        // Page 1: unapplied notices — must be dropped and refetched later.
        st.pages[1].state = PageState::Invalid;
        st.pages[1].unapplied = vec![NoticeRec {
            id: IntervalId { node: 0, seq: 1 },
            vc_sum: 1,
        }];
        st.interval_log.insert((0, 1), info(&[1, 0], vec![0, 1]));
        let owners = BTreeMap::from([(0, 0), (1, 0)]);
        st.apply_gc_complete(&owners, &VectorClock(vec![1, 0]));
        assert_eq!(st.gc_epoch, 1);
        assert_eq!(st.pages[0].epoch, 1);
        assert!(st.pages[0].readable());
        assert!(st.pages[1].unapplied.is_empty());
        assert!(st.pages[1].base_lost, "dropped notices => base lost");
        assert!(!st.pages[0].base_lost);
        assert!(st.interval_log.is_empty());
    }

    #[test]
    fn gc_complete_preserves_post_snapshot_state() {
        let mut st = World::node(1, 2);
        // Page 0 is valid as of the snapshot, but node 0's *next* interval
        // (seq 2, past the snapshot) has already invalidated it — the race
        // a barrier manager's service thread creates during the GC.
        st.pages[0].state = PageState::Invalid;
        st.pages[0].unapplied = vec![NoticeRec {
            id: IntervalId { node: 0, seq: 2 },
            vc_sum: 7,
        }];
        st.interval_log.insert((0, 1), info(&[1, 0], vec![0]));
        st.interval_log.insert((0, 2), info(&[2, 5], vec![0]));
        let owners = BTreeMap::from([(0usize, 0usize)]);
        st.apply_gc_complete(&owners, &VectorClock(vec![1, 0]));
        // The premature notice survives with its log entry, and the base
        // is still usable (it equals the owner's snapshot copy).
        assert_eq!(st.pages[0].unapplied.len(), 1);
        assert!(
            st.interval_log.contains_key(&(0, 2)),
            "post-snapshot log entry kept"
        );
        assert!(
            !st.interval_log.contains_key(&(0, 1)),
            "covered log entry dropped"
        );
        assert!(!st.pages[0].base_lost, "base valid as of snapshot");
        assert_eq!(st.pages[0].epoch, 1);
    }

    #[test]
    fn mgr_queue_grants_locks_and_semaphores_in_request_time_order() {
        let mut mgr = ManagerState::default();
        let vc = |node: usize| VectorClock(vec![node as u32 + 1, 0, 0, 0]);
        // A lock's one permit starts free: the first acquire is granted
        // at once, later ones queue.
        let lock = mgr.queue(SyncId::Lock(7));
        assert!(lock.wait(900, 4, &vc(4)));
        for (req_vt, node) in [(500, 2), (300, 1), (100, 3), (300, 0)] {
            assert!(!lock.wait(req_vt, node, &vc(node)));
        }
        // Releases grant by (req_vt, node): a tie on 300 goes to node 0.
        let granted: Vec<_> = (0..4).map(|_| lock.signal()).collect();
        let want = [3, 0, 1, 2].map(|node| Some((node, vc(node))));
        assert_eq!(granted, want);
        // A release with no waiter frees the lock; the next acquire is
        // granted at once, and the one after queues.
        assert_eq!(lock.signal(), None);
        assert!(lock.wait(1000, 1, &vc(1)));
        assert!(!lock.wait(1000, 2, &vc(2)));

        // The semaphore of the same id is another queue, with no permit.
        let sema = mgr.queue(SyncId::Sema(7));
        assert!(!sema.wait(400, 1, &vc(1)));
        assert!(!sema.wait(200, 2, &vc(2)));
        assert_eq!(sema.signal(), Some((2, vc(2))));
        assert_eq!(sema.signal(), Some((1, vc(1))));
        // A signal with no waiter banks a permit, which the next wait
        // takes at once.
        assert_eq!((sema.signal(), sema.signal()), (None, None));
        assert!(sema.wait(600, 0, &vc(0)));
        assert!(sema.wait(700, 3, &vc(3)));
        assert!(!sema.wait(800, 1, &vc(1)));
        assert_eq!(mgr.queue(SyncId::Lock(7)).waiters.len(), 1);
    }
}

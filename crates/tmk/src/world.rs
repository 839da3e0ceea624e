//! The one thread-free world: every node's [`NodeState`] and the
//! messages between them, driven with no threads through the request
//! and reply halves and [`on_request`] that the threaded system runs
//! (DESIGN.md §3).

use crate::addr::{AllocTable, PageId};
use crate::config::TmkConfig;
use crate::interval::{IntervalId, VectorClock};
use crate::protocol::{Msg, Region};
use crate::service::on_request;
use crate::state::{FaultRequests, NodeState, SyncId};
use now_net::{VirtualClock, Wire as _};
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::sync::Arc;

/// A fault round's sends: `(dst, kind)`.
type Sends = Vec<(usize, &'static str)>;

/// What the world strips from a message as it leaves its node: the
/// pure-invalidate, page-by-page oracles.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub(crate) enum Strip {
    #[default]
    Nothing,
    /// The diffs attached to arrivals, lock releases, condition waits
    /// and forks.
    Updates,
    /// Those, and the sibling pages of a fault's `DiffReq`s.
    UpdatesAndSiblings,
}

/// `n` nodes, the messages between them, and what the step program
/// draws and records.
#[derive(Default)]
pub(crate) struct World {
    pub nodes: Vec<NodeState>,
    /// Requests in flight, in send order: `(src, dst, msg)`.
    pub wire: VecDeque<(usize, usize, Msg)>,
    /// Each node's replies, grants and forks: `(src, msg)`.
    pub inbox: Vec<VecDeque<(usize, Msg)>>,
    /// Every message sent, in order: `(src, dst, kind, wire bytes)`.
    pub log: Vec<(usize, usize, &'static str, usize)>,
    /// Answer fault rounds with the per-writer requests: the oracle.
    pub per_writer: bool,
    pub strip: Strip,
    /// A step's barrier or join whose `arg` this divides runs a GC round.
    pub gc_every: u32,
    /// Arrivals of [`World::step`] carry reduction partials.
    pub partials: bool,
    /// The step menu has a region boundary ([`World::region`]).
    pub regions: bool,
    /// A region has been forked: the next boundary joins first.
    pub forked: bool,
    /// Next barrier episode.
    pub epoch: u32,
    /// `DiffReq`s sent, one entry per fault that applied a diff.
    pub requests: Vec<usize>,
    /// The page bytes every read of [`World::step`] returned.
    pub reads: Vec<Vec<u8>>,
}

impl World {
    /// `n` fresh nodes under the deterministic config, sharing pages 0 to
    /// 3, with nothing in flight or stripped.
    pub fn new(n: usize) -> Self {
        let cfg = TmkConfig::deterministic(n);
        let alloc = AllocTable::new(cfg.page_shift());
        let _ = alloc.alloc(4 * cfg.page_size);
        let node = |id| {
            let clock = VirtualClock::new();
            NodeState::new(id, cfg.clone(), alloc.clone(), clock, Default::default())
        };
        let mut nodes: Vec<_> = (0..n).map(node).collect();
        nodes.iter_mut().for_each(NodeState::sync_alloc);
        let mut world = World::default();
        (world.nodes, world.inbox) = (nodes, vec![VecDeque::new(); n]);
        world.gc_every = 1;
        world
    }

    /// Node `id` of [`World::new`]'s `n` fresh nodes.
    pub fn node(id: usize, n: usize) -> NodeState {
        Self::new(n).nodes.swap_remove(id)
    }

    /// Node `src` sends `msg` to `dst`: a fork to `dst`'s inbox, a request
    /// onto the wire, stripped as the world strips.
    pub fn send(&mut self, src: usize, (dst, mut msg): (usize, Msg)) {
        if self.strip != Strip::Nothing {
            match &mut msg {
                Msg::BarrierArrive { rel, .. }
                | Msg::LockRelease { rel, .. }
                | Msg::CondWait { rel, .. } => rel.updates.clear(),
                Msg::Fork { acq, .. } => acq.updates.clear(),
                _ => {}
            }
        }
        self.log.push((src, dst, msg.kind(), msg.wire_bytes()));
        match msg {
            Msg::Fork { .. } => self.inbox[dst].push_back((src, msg)),
            msg => self.wire.push_back((src, dst, msg)),
        }
    }

    /// Handle every request in flight, in send order; what each handler
    /// sends waits in the inboxes.
    pub fn pump(&mut self) {
        while !self.wire.is_empty() {
            self.handle(0);
        }
    }

    /// Handle the `i`-th request in flight ([`World::pump`] the oldest,
    /// [`World::explore`] the one it chose); what its handler sends waits
    /// in the inboxes, but a forwarded `StealReq` and a `TaskDone`, which
    /// its waiter's service thread serves, go back on the wire. A data
    /// request is answered once, to its asker, a `DiffRep` page by page
    /// in request order; a `StealReq` yields one message, a `StealRep`
    /// to its thief or the request to the next victim it names; a
    /// `TaskJoin` at most one `TaskDone`, to its waiter.
    pub fn handle(&mut self, i: usize) {
        let (src, dst, msg) = self.wire.remove(i).expect("a request in flight");
        let asked: Option<Vec<PageId>> = match &msg {
            Msg::DiffReq { pages } => Some(pages.iter().map(|(pid, _)| *pid).collect()),
            Msg::PageReq { .. } => Some(Vec::new()),
            _ => None,
        };
        let chain = match &msg {
            Msg::StealReq { thief, rest, .. } => Some((*thief as usize, rest.first().copied())),
            _ => None,
        };
        let join = matches!(msg, Msg::TaskJoin { .. });
        let mut out = Vec::new();
        on_request(&mut self.nodes[dst], src, msg, 0, &mut out);
        if let Some(asked) = asked {
            let one = matches!(&out[..], [(to, _)] if *to == src && src != dst);
            assert!(one, "one reply, to the asker");
            if let [(_, Msg::DiffRep { pages })] = &out[..] {
                assert!(pages.iter().map(|(pid, _)| *pid).eq(asked), "request order");
            }
        }
        if let Some((thief, next)) = chain {
            let one = match &out[..] {
                [(to, Msg::StealRep { .. })] => *to == thief,
                [(to, Msg::StealReq { .. })] => Some(*to as u16) == next,
                _ => false,
            };
            assert!(
                one && thief != dst,
                "one answer to the thief, or one forward"
            );
        }
        if join {
            let one = matches!(&out[..], [(to, Msg::TaskDone { .. })] if *to == src);
            assert!(
                out.is_empty() || one,
                "a join is kept, or answered to its waiter"
            );
        }
        for (to, msg) in out {
            if let Msg::StealReq { .. } | Msg::TaskDone { .. } = msg {
                self.send(dst, (to, msg));
                continue;
            }
            self.log.push((dst, to, msg.kind(), msg.wire_bytes()));
            self.inbox[to].push_back((dst, msg));
        }
    }

    /// Messages and wire bytes by kind: every one sent, or with `remote`
    /// those between two nodes (a self-send is free on the network).
    pub fn tally(&self, remote: bool) -> BTreeMap<&'static str, (u64, u64)> {
        let mut tally = BTreeMap::new();
        for &(_, _, kind, bytes) in self.log.iter().filter(|e| !remote || e.0 != e.1) {
            let (msgs, sum): &mut (u64, u64) = tally.entry(kind).or_default();
            (*msgs, *sum) = (*msgs + 1, *sum + bytes as u64);
        }
        tally
    }

    /// Node `f` makes `pids` readable through the production fault
    /// halves, a GC validation without `subscribe`, and checks them: each
    /// foreign id goes to a writer one of whose notices here dominates
    /// it, a validation names no sibling, each sibling's diffs are held
    /// under their page, and each page's whole set is applied at once.
    /// With `per_writer`, [`per_writer_requests`] stand in for a round's
    /// `DiffReq`s: the oracle. Returns each round's sends.
    pub fn fault(&mut self, f: usize, pids: &[PageId], subscribe: bool) -> Vec<Sends> {
        let unapplied = |&pid: &PageId| (pid, self.nodes[f].pages[pid].unapplied.len());
        let mut planned: Vec<_> = pids.iter().map(unapplied).filter(|p| p.1 > 0).collect();
        let (mut fault, mut sends) = self.nodes[f].fault_request(pids, subscribe);
        let (first, mut rounds, mut siblings) = (self.log.len(), Vec::new(), Vec::new());
        while !fault.done() {
            let round = std::mem::take(&mut sends);
            rounds.push(round.iter().map(|(dst, m)| (*dst, m.kind())).collect());
            let (owed, mut named, mut replaced) = (round.len(), BTreeSet::new(), 0);
            for (w, mut msg) in round {
                if let Msg::DiffReq { pages } = &mut msg {
                    let sibling = pages.iter().any(|(pid, _)| !pids.contains(pid));
                    assert!(subscribe || !sibling, "a GC validation names no sibling");
                    if !self.per_writer {
                        self.assert_dominated(f, w, pages);
                    }
                    if self.strip == Strip::UpdatesAndSiblings {
                        pages.retain(|(pid, _)| pids.contains(pid));
                    }
                    if self.per_writer {
                        named.extend(pages.iter().map(|(pid, _)| *pid));
                        replaced += 1;
                        continue;
                    }
                }
                self.send(f, (w, msg));
            }
            let oracle = per_writer_requests(&self.nodes[f], &named);
            let asked = oracle.len();
            for (w, pages) in oracle {
                self.send(f, (w, Msg::DiffReq { pages }));
            }
            self.pump();
            // The round's replies; what else waits for `f` stays.
            let data = |(_, m): &(_, Msg)| matches!(m, Msg::DiffRep { .. } | Msg::PageRep { .. });
            let (replies, rest): (VecDeque<_>, _) = self.inbox[f].drain(..).partition(data);
            self.inbox[f] = rest;
            let mut replies: Vec<Msg> = replies.into_iter().map(|(_, m)| m).collect();
            // The oracle's requests went out last: their diffs, merged,
            // answer the round's first `DiffReq`, and the others none.
            let oracle = replies.split_off(replies.len() - asked).into_iter();
            let mut diffs: Vec<_> = oracle
                .flat_map(|reply| match reply {
                    Msg::DiffRep { pages } => pages,
                    other => panic!("a DiffReq is answered by a DiffRep, not {}", other.kind()),
                })
                .collect();
            let mut merged = || std::mem::take(&mut diffs);
            replies.extend((0..replaced).map(|_| Msg::DiffRep { pages: merged() }));
            assert_eq!(replies.len(), owed, "one reply a request");
            for reply in replies {
                if let Msg::DiffRep { pages } = &reply {
                    let theirs = pages.iter().filter(|(pid, _)| !pids.contains(pid));
                    siblings.extend(theirs.cloned());
                }
                sends = self.nodes[f].on_fault_reply(&mut fault, reply);
            }
        }
        for (q, diffs) in siblings {
            for (id, diff) in diffs {
                let held = self.nodes[f].pages[q].diffs.get(&id);
                assert!(held.is_some_and(|d| Arc::ptr_eq(d, &diff)), "{id:?} of {q}");
            }
        }
        // Nothing partial: each page's whole set, each diff once.
        let mut applied = fault.applied.clone();
        applied.sort();
        planned.sort();
        assert_eq!(applied, planned, "applied set != planned set");
        if !applied.is_empty() {
            let sent = self.log[first..]
                .iter()
                .filter(|e| e.0 == f && e.2 == "diff_req");
            self.requests.push(sent.count());
        }
        rounds
    }

    /// Every foreign id node `f` asks `w` for on `pages` goes to a
    /// writer one of whose notices here dominates it (held ids taken
    /// out after), for a faulted page and a sibling alike.
    fn assert_dominated(&self, f: usize, w: usize, pages: &[(PageId, Vec<IntervalId>)]) {
        let st = &self.nodes[f];
        for (pid, ids) in pages {
            let plan = st.fault_plan(*pid).into_iter().find(|(k, _)| *k == w);
            let all = plan.map_or(Vec::new(), |(_, ids)| ids);
            let mine = all.iter().filter(|id| id.node as usize == w);
            let mine = mine.map(|m| &st.interval_log[&(m.node, m.seq)]);
            for id in ids.iter().filter(|id| id.node as usize != w) {
                assert!(all.contains(id), "{ids:?} of {pid} to {w}");
                let dominated = mine.clone().any(|m| m.dominates(*id));
                assert!(dominated, "{id:?} of {pid} sent to {w}");
            }
        }
    }

    /// Node `to` receives every notice node `from` holds that it lacks,
    /// acquired by its application thread or applied by its service
    /// thread only (a release reaching a manager, a flush notice).
    pub fn deliver(&mut self, from: usize, to: usize, acquire: bool) {
        let b = self.nodes[from].bundle_for(&self.nodes[to].processed_vc);
        if acquire {
            self.nodes[to].acquire(from, &b);
        } else {
            self.nodes[to].apply_bundle(from, &b);
        }
    }

    /// Handle what is in flight; every node takes the grants in its inbox.
    fn take_grants(&mut self) {
        self.pump();
        for (st, inbox) in self.nodes.iter_mut().zip(&mut self.inbox) {
            for (src, msg) in std::mem::take(inbox) {
                match msg {
                    Msg::LockGrant { lock, .. } => st.on_grant(SyncId::Lock(lock), src, msg),
                    Msg::SemaGrant { sema, .. } => st.on_grant(SyncId::Sema(sema), src, msg),
                    _ => inbox.push_back((src, msg)),
                }
            }
        }
    }

    /// Node `k` acquires `obj`, a lock or a semaphore: whether it was
    /// granted at once, the manager sending `k` one grant and nothing
    /// else. A queued request, answered by nothing, is granted at a
    /// release.
    pub fn acquire(&mut self, k: usize, obj: SyncId) -> bool {
        let req = self.nodes[k].wait_request(obj);
        self.send(k, req);
        let asked = self.log.len();
        self.take_grants();
        let sent: Vec<_> = self.log[asked..].iter().map(|e| (e.1, e.2)).collect();
        let grant = match obj {
            SyncId::Sema(_) => "sema_grant",
            _ => "lock_grant",
        };
        assert!(sent.is_empty() || sent == [(k, grant)], "{sent:?}");
        !sent.is_empty()
    }

    /// Node `k` releases `obj`, or with `cond` waits on lock `obj`; a
    /// queued node takes the grant, and a semaphore's signaller its ack.
    pub fn release(&mut self, k: usize, obj: SyncId, cond: Option<u32>) {
        let rel = self.nodes[k].signal_request(obj, cond);
        self.send(k, rel);
        self.take_grants();
        if let SyncId::Sema(sema) = obj {
            let ack = self.inbox[k].pop_front().map(|(_, m)| m);
            assert!(matches!(ack, Some(Msg::SemaAck { sema: s }) if s == sema));
        }
    }

    /// Node `k` flushes: a notice to every other node, each acked.
    pub fn flush(&mut self, k: usize) {
        let notices = self.nodes[k].flush_request();
        notices.into_iter().for_each(|notice| self.send(k, notice));
        self.pump();
        let acks = self.inbox[k].drain(..).map(|(_, m)| m.kind());
        assert!(acks.eq(vec!["flush_ack"; self.nodes.len() - 1]));
    }

    /// Node `k` writes `val` at byte `off` of `pid`, faulting first.
    pub fn write(&mut self, k: usize, pid: PageId, off: usize, val: u8) {
        self.read(k, pid);
        self.nodes[k].start_write(pid);
        let r = self.nodes[k].page_range(pid);
        self.nodes[k].mem[r][off] = val;
    }

    /// Node `k`'s bytes of `pid`, faulting first if it is not readable.
    pub fn read(&mut self, k: usize, pid: PageId) -> &[u8] {
        if !self.nodes[k].pages[pid].readable() {
            self.fault(k, &[pid], true);
        }
        let r = self.nodes[k].page_range(pid);
        &self.nodes[k].mem[r]
    }

    /// Every node from `first` on arrives at the next barrier (a region's
    /// join with `join`) and takes its departure, then the GC round it
    /// calls. With `partials`, each first contributes up to two partials
    /// as `arg` picks, which must reach node 0 alone, by `(site, node)`.
    pub fn barrier(&mut self, first: usize, gc: bool, arg: u32, join: bool) {
        let n = self.nodes.len();
        let epoch = self.epoch;
        self.epoch += 1;
        self.nodes[0].cfg.gc_every_barrier = gc;
        let mut want = Vec::new();
        for k in (0..n).map(|i| (first + i) % n) {
            if self.partials {
                let bits = arg.rotate_right(5 * k as u32);
                for j in 0..bits % 3 {
                    let site = (bits >> (2 + 2 * j)) % 3;
                    let bytes = vec![k as u8, epoch as u8, j as u8];
                    self.nodes[k].partials.push((site, bytes.clone()));
                    want.push((site, k, bytes));
                }
            }
            let arrive = self.nodes[k].arrive_request(epoch, join);
            self.send(k, arrive);
        }
        self.pump();
        let mut snapshots = Vec::new();
        for k in (0..n).filter(|&k| !join || k == 0) {
            let (src, depart) = self.inbox[k].pop_front().expect("a departure");
            snapshots.extend(self.nodes[k].on_depart(epoch, src, depart));
        }
        let once = self.inbox.iter().all(VecDeque::is_empty);
        assert!(once, "a barrier departs each node once, a join the master");
        want.sort_by_key(|&(site, node, _)| (site, node));
        assert_eq!(std::mem::take(&mut self.nodes[0].gathered), want);
        for node in &self.nodes {
            assert!(node.partials.is_empty() && node.gathered.is_empty());
        }
        let waits = !join || snapshots.is_empty();
        assert!(waits, "a join's GC round waits for the fork");
        self.gc_round(snapshots);
    }

    /// A region boundary: the join departs the master alone, which reads
    /// both pages and writes its slot of `pid`, then forks; each slave
    /// takes its fork, its departure from the join with the join's
    /// riders, and a GC round the join called runs then. Unless the
    /// world starts `forked`, its first boundary has no join: its fork
    /// is the job's first.
    fn region(&mut self, first: usize, gc: bool, arg: u32, (pid, off, val): (PageId, usize, u8)) {
        let n = self.nodes.len();
        if std::mem::replace(&mut self.forked, true) {
            self.barrier(first, gc, arg, true);
            assert_eq!(self.nodes[0].mgr.gc_in_progress, gc);
        }
        let bytes = [0, 1].map(|page| self.read(0, page).to_vec());
        self.reads.extend(bytes);
        self.write(0, pid, 16 + off, val);
        let region = Region {
            f: Arc::new(|_| {}),
            payload_bytes: 0,
        };
        let (forks, master) = self.nodes[0].fork_request(&region);
        assert!(!self.nodes[0].mgr.riders.contains_key(&SyncId::Barrier));
        let mut snapshots: Vec<VectorClock> = master.into_iter().collect();
        assert_eq!(forks.len(), n - 1, "one fork a slave");
        forks.into_iter().for_each(|fork| self.send(0, fork));
        for k in 1..n {
            let Some((src, Msg::Fork { acq, gc, .. })) = self.inbox[k].pop_front() else {
                panic!("node {k} expected a fork")
            };
            snapshots.extend(self.nodes[k].on_fork(src, acq, gc));
        }
        self.gc_round(snapshots);
    }

    /// A GC round from `snapshots`, one a node or none: every node holds
    /// the one snapshot as its processed clock and computes the same
    /// owners, which validate their pages and send the manager `GcDone`;
    /// the last one's `GcComplete`, highest node first, ends it.
    fn gc_round(&mut self, snapshots: Vec<VectorClock>) {
        let n = self.nodes.len();
        let Some(upto) = snapshots.first().cloned() else {
            return;
        };
        assert_eq!(snapshots, vec![upto.clone(); n], "one snapshot for all");
        let owners = self.nodes[0].compute_gc_owners(&upto);
        let epoch = self.epoch - 1;
        for k in 0..n {
            assert_eq!(self.nodes[k].processed_vc, upto);
            assert_eq!(self.nodes[k].compute_gc_owners(&upto), owners);
            let mine = owners.iter().filter(|&(_, &o)| o == k).map(|(&p, _)| p);
            self.fault(k, &mine.collect::<Vec<_>>(), false);
            self.send(k, (0, Msg::GcDone { epoch }));
        }
        self.pump();
        assert!(!self.nodes[0].mgr.gc_in_progress, "the round is over");
        let completes = self.log[self.log.len() - n..].iter().map(|e| (e.1, e.2));
        let want = (0..n).rev().map(|k| (k, "gc_complete"));
        assert!(completes.eq(want), "the last done completes all");
        for k in 0..n {
            let done = self.inbox[k].pop_front().map(|(_, m)| m);
            assert!(matches!(done, Some(Msg::GcComplete { epoch: e }) if e == epoch));
            self.nodes[k].apply_gc_complete(&owners, &upto);
        }
    }

    /// One step of a data-race-free program over pages 0 and 1: bytes
    /// 0..16 of a page are written only under lock 0, bytes 96..112
    /// only under lock 1, bytes `16 * (k + 1)..` only by node `k`.
    pub fn step(&mut self, op: u32) {
        let n = self.nodes.len();
        let kinds = if self.regions { 7 } else { 6 };
        let (kind, arg) = (op % kinds, op / kinds);
        let k = arg as usize % n;
        let pid = (arg as usize / n) % 2;
        let (off, val) = ((arg >> 4) as usize % 16, (arg >> 8) as u8 | 1);
        let (free, lock) = ("a free lock is granted at once", SyncId::Lock);
        match kind {
            // Lock-protected writes: acquire, validate, write, release.
            0 => match (arg >> 10) % 4 {
                // Under lock 0 or lock 1.
                0 | 1 => {
                    let l = (arg >> 10) % 2;
                    assert!(self.acquire(k, lock(l)), "{free}");
                    self.write(k, pid, 96 * l as usize + off, val);
                    self.release(k, lock(l), None);
                }
                // Under both, nested: the fault subscribes lock 1.
                2 => {
                    let both = self.acquire(k, lock(0)) && self.acquire(k, lock(1));
                    assert!(both, "{free}");
                    self.write(k, pid, off, val);
                    self.write(k, pid, 96 + off, val);
                    self.release(k, lock(1), None);
                    self.release(k, lock(0), None);
                }
                // A condition wait: `k` writes and waits; `j` takes the
                // lock, writes the other page, signals and releases,
                // which grants the lock back to `k`, who writes again.
                _ => {
                    let j = (k + 1) % n;
                    assert!(self.acquire(k, lock(0)), "{free}");
                    self.write(k, pid, off, val);
                    self.release(k, lock(0), Some(0));
                    assert!(self.acquire(j, lock(0)), "{free}");
                    self.write(j, 1 - pid, off, val);
                    let signal = self.nodes[j].notify_request(0, 0, false);
                    self.send(j, signal);
                    let sent = self.log.len();
                    self.pump();
                    assert_eq!(self.log.len(), sent, "a signal sends nothing");
                    self.release(j, lock(0), None);
                    assert_eq!(self.nodes[k].held_locks, [0], "the grant came back");
                    self.write(k, pid, (off + 1) % 16, val);
                    self.release(k, lock(0), None);
                }
            },
            // A write to the node's own slot, interval left open.
            1 => self.write(k, pid, 16 * (k + 1) + off, val),
            // The same without fetching (GC-stale pages fault first).
            2 => {
                if self.nodes[k].pages[pid].base_lost {
                    self.fault(k, &[pid], true);
                }
                self.nodes[k].start_write_push(pid);
                let r = self.nodes[k].page_range(pid);
                self.nodes[k].mem[r][16 * (k + 1) + off] = val;
            }
            // Notices arriving mid-interval, open twins and all.
            3 => self.deliver((k + 1 + off % (n - 1)) % n, k, val % 4 == 1),
            4 => {
                let bytes = self.read(k, pid).to_vec();
                self.reads.push(bytes);
            }
            5 => self.barrier(k, arg % self.gc_every == 0, arg, false),
            _ => self.region(k, arg % self.gc_every == 0, arg, (pid, off, val)),
        }
    }

    /// Every run of `walk`, depth-first: at each state the explorer
    /// chooses which request in flight [`World::handle`] delivers next,
    /// or which node takes its next enabled program step. Each prefix of
    /// choices is replayed from a clone of `walk` and [`Walk::start`]'s
    /// world; no state is hashed, so no run is pruned. Returns each
    /// complete run's final state; a failed check names its run's choices.
    pub fn explore<W: Walk>(walk: &W) -> Vec<W> {
        fn from<W: Walk>(walk: &W, prefix: &[Choice]) -> Vec<W> {
            let trail = Trail(prefix);
            let mut run = walk.clone();
            let mut w = run.start();
            for &choice in prefix {
                match choice {
                    Choice::Deliver(i) => run.deliver(&mut w, i),
                    Choice::Step(k) => run.step(&mut w, k),
                }
            }
            let steps = (0..w.nodes.len()).filter(|&k| run.ready(&w, k));
            let delivers = (0..w.wire.len()).map(Choice::Deliver);
            let choices: Vec<_> = delivers.chain(steps.map(Choice::Step)).collect();
            if choices.is_empty() {
                run.leaf(w);
                return vec![run];
            }
            drop(trail);
            let next = |choice| from(walk, &[prefix, &[choice]].concat());
            choices.into_iter().flat_map(next).collect()
        }
        from(walk, &[])
    }
}

/// A choice of [`World::explore`]: a request in flight, or a node's step.
#[derive(Clone, Copy, Debug)]
pub(crate) enum Choice {
    Deliver(usize),
    Step(usize),
}

/// A program [`World::explore`] walks. Its value is a run's own state
/// (models, program counters), cloned from the start for each run.
pub(crate) trait Walk: Clone {
    /// The world a run starts from, with its first requests in flight.
    fn start(&self) -> World;
    /// Whether node `k`'s next program step is enabled.
    fn ready(&self, _: &World, _k: usize) -> bool {
        false
    }
    /// Node `k` takes its next program step.
    fn step(&mut self, _: &mut World, _k: usize) {}
    /// Deliver the `i`-th request in flight, and check what it did.
    fn deliver(&mut self, w: &mut World, i: usize) {
        w.handle(i);
    }
    /// Check a complete run: nothing in flight and no step enabled.
    fn leaf(&mut self, w: World);
}

/// A run's choices, printed if a check panics while it replays.
struct Trail<'a>(&'a [Choice]);

impl Drop for Trail<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            eprintln!("in the run {:?}", self.0);
        }
    }
}

/// The fault requests before domination, kept as the differential
/// oracle: one request to every writer with an unapplied notice on
/// one of `pids`, and no siblings.
fn per_writer_requests(st: &NodeState, pids: &BTreeSet<PageId>) -> FaultRequests {
    let mut by_node: BTreeMap<usize, Vec<(PageId, Vec<IntervalId>)>> = BTreeMap::new();
    for &pid in pids {
        for rec in &st.pages[pid].unapplied {
            let pages = by_node.entry(rec.id.node as usize).or_default();
            match pages.last_mut() {
                Some((last, ids)) if *last == pid => ids.push(rec.id),
                _ => pages.push((pid, vec![rec.id])),
            }
        }
    }
    by_node.into_iter().collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::{TmkOp, TmkStats};
    use crate::system::run_system;
    use crate::Tmk;
    use parking_lot::Mutex;

    /// Remote messages by kind, summed `TmkStats`, and the page bytes a
    /// program read.
    type Outcome = (BTreeMap<&'static str, u64>, TmkStats, Vec<Vec<u8>>);

    /// The world's [`Outcome`]: its remote sends, its nodes' summed
    /// stats and `pages`.
    fn outcome(w: &World, pages: Vec<Vec<u8>>) -> Outcome {
        let sent = w.tally(true).into_iter().map(|(kind, m)| (kind, m.0));
        let mut stats = TmkStats::default();
        for &op in TmkOp::ALL {
            let sum = w.nodes.iter().map(|st| st.metrics.op(op).get()).sum();
            op.add_to(&mut stats, sum);
        }
        (sent.collect(), stats, pages)
    }

    /// `program` on the threaded system under `cfg`, one region forked
    /// from its master: the [`Outcome`] with that fork taken out, which
    /// is all the threaded run adds to its world twin.
    fn threaded<F>(cfg: TmkConfig, program: F) -> Outcome
    where
        F: FnOnce(&mut Tmk) -> Vec<Vec<u8>> + Send + 'static,
    {
        let slaves = cfg.nodes() as u64 - 1;
        let out = run_system(cfg, program);
        let kinds = out.net.per_kind.iter().filter(|k| k.send_msgs > 0);
        let mut sent: BTreeMap<_, _> = kinds.map(|k| (k.kind, k.send_msgs)).collect();
        let mut stats = out.dsm;
        assert_eq!((sent.remove("fork"), stats.forks), (Some(slaves), 1));
        stats.forks = 0;
        (sent, stats, out.result)
    }

    /// Nodes of the lock-chain program.
    const N: usize = 3;
    /// Its lock, managed by node 1, which is not the barrier manager.
    const LOCK: u32 = 1;
    /// The programs' shared page.
    const PAGE: PageId = 0;
    /// The hand-off's semaphore, managed by node 0.
    const SEMA: SyncId = SyncId::Sema(0);

    /// The program: a lock chain in which each node writes byte `k` of
    /// the page, a barrier, every node reads the page (its faults
    /// subscribe it), a barrier, every node writes byte `8 + k`, a
    /// barrier, every node reads the page again (the other writers'
    /// diffs rode the barrier), the join barrier. Also returns the
    /// remote wire bytes by kind and each node's `(vt, cpu)` clocks.
    ///
    /// In the threaded run the barrier manager's service thread takes the
    /// others' arrivals while its application may still be writing; the
    /// counts match only because it applies their notices at release.
    fn without_threads() -> (Outcome, Vec<u64>, Vec<(u64, u64)>) {
        let mut w = World::new(N);
        // Every node asks at once; the grants then pass down the queue.
        for k in 0..N {
            w.acquire(k, SyncId::Lock(LOCK));
        }
        for _ in 0..N {
            let k = (0..N).find(|&k| w.nodes[k].held_locks == [LOCK]);
            let k = k.expect("one node is granted the lock");
            w.write(k, PAGE, k, k as u8 + 1);
            w.release(k, SyncId::Lock(LOCK), None);
        }
        w.barrier(0, false, 0, false);
        for k in 0..N {
            w.read(k, PAGE);
        }
        w.barrier(0, false, 0, false);
        (0..N).for_each(|k| w.write(k, PAGE, 8 + k, k as u8 + 1));
        w.barrier(0, false, 0, false);
        let pages = (0..N).map(|k| w.read(k, PAGE).to_vec()).collect();
        w.barrier(0, false, 0, true);
        let bytes = w.tally(true).into_values().map(|(_, bytes)| bytes);
        let clocks = w
            .nodes
            .iter()
            .map(|st| (st.clock.now(), st.clock.cpu_now()));
        (outcome(&w, pages), bytes.collect(), clocks.collect())
    }

    #[test]
    fn a_lock_chain_and_barriers_run_without_threads_as_with_them() {
        let first = without_threads();
        assert_eq!(
            first,
            without_threads(),
            "thread-free runs are bit-identical"
        );
        let (free, bytes, clocks) = first;
        let (sent, stats, pages) = &free;
        // The chain's second and third holders fetch once each. No later
        // fault sends anything: the chain's twins subscribed the page, so
        // barrier 1 trades every writer's diff on speculation, and barrier
        // 3 the second writes. The join departs node 0 alone: 3 barriers
        // and the join send 2 arrivals each, the 3 barriers 2 departures
        // each.
        let want = [
            ("barrier_arrive", 8),
            ("barrier_depart", 6),
            ("diff_rep", 2),
            ("diff_req", 2),
            ("lock_acq", 2),
            ("lock_grant", 2),
            ("lock_rel", 2),
        ];
        assert_eq!(sent, &BTreeMap::from(want));
        assert_eq!(
            (stats.read_faults, stats.diffs_created, stats.diffs_applied),
            (7, 6, 12)
        );
        let mut page = vec![0; pages[0].len()];
        page[..N].copy_from_slice(&[1, 2, 3]);
        page[8..8 + N].copy_from_slice(&[1, 2, 3]);
        assert_eq!(pages, &vec![page; N]);
        // Wire bytes by kind, in `want`'s order, and the final clocks, as
        // recorded: a refactor of the riders leaves them as they are. The
        // two-way join's slave departures were 37 B each (a 9 B header,
        // an empty 24 B bundle and one published page): 492 − 2 × 37 =
        // 418. Barrier 1's speculation then moved 42 B of diffs onto the
        // arrivals and 84 B onto the departures, and took 79 B and 48 B
        // off `diff_rep` and `diff_req`: 590, 418, 158, 96 → 632, 502, 79,
        // 48.
        assert_eq!(bytes, [632, 502, 79, 48, 48, 124, 145]);
        assert_eq!(clocks, [(34, 10), (34, 10), (44, 0)]);

        let cfg = TmkConfig::deterministic(N);
        let page_size = cfg.page_size;
        let threaded = threaded(cfg, move |tmk| {
            let v = tmk.malloc_vec::<u8>(page_size);
            let seen = Arc::new(Mutex::new(vec![Vec::new(); N]));
            let pages = seen.clone();
            tmk.parallel(0, move |t| {
                let k = t.proc_id();
                t.lock_acquire(LOCK);
                t.write(&v, k, k as u8 + 1);
                t.lock_release(LOCK);
                t.barrier();
                t.read_slice(&v, 0..page_size);
                t.barrier();
                t.write(&v, 8 + k, k as u8 + 1);
                t.barrier();
                pages.lock()[k] = t.read_slice(&v, 0..page_size);
            });
            let pages = seen.lock().clone();
            pages
        });
        assert_eq!(threaded, free);
    }

    /// The task scope of the task-arm walks.
    const SCOPE: u32 = 1;
    /// Their one task.
    const TASK: crate::Task = [7, 0, 0, 0];
    /// The frame of node 0 that pushes it.
    const FRAME: u32 = 3;

    /// Node `thief` sends its sweep of `victims`.
    fn steal(w: &mut World, thief: usize, victims: &[usize]) {
        let req = w.nodes[thief].steal_request(victims, SCOPE);
        w.send(thief, req);
    }

    /// Node `k`'s idle worker parks at node 0.
    fn park(w: &mut World, k: usize) {
        w.send(k, (0, Msg::TermIdle { scope: SCOPE }));
    }

    /// The steal arm's walk on 3 nodes. Node 0 writes byte 5 of the page
    /// its one program step pushes a task about (`pushed`, the push's
    /// interval). Without a `chain`, nodes 1 and 2 ask node 0 for a task
    /// at once. With one, node 2 writes a page of its own, so a grant
    /// from it would raise what it knows node 1 holds; node 1 sweeps
    /// node 2, whose deque stays empty, then node 0, by one chain, and
    /// node 2 asks node 0 directly.
    #[derive(Clone, Default)]
    struct Steals {
        chain: bool,
        pushed: Option<u32>,
    }

    impl Walk for Steals {
        fn start(&self) -> World {
            let mut w = World::new(3);
            w.write(0, PAGE, 5, 42);
            if self.chain {
                w.write(2, 1, 0, 9);
                w.nodes[2].close_interval();
            }
            let first: &[usize] = if self.chain { &[2, 0] } else { &[0] };
            steal(&mut w, 1, first);
            steal(&mut w, 2, &[0]);
            w
        }

        fn ready(&self, _: &World, k: usize) -> bool {
            k == 0 && self.pushed.is_none()
        }

        fn step(&mut self, w: &mut World, _: usize) {
            let hungry = w.nodes[0].tasks.hungry;
            let was = w.nodes[0].task_push(SCOPE, TASK, FRAME, 4);
            assert_eq!(was, Some(hungry), "the push clears the mark");
            assert!(!w.nodes[0].tasks.hungry);
            self.pushed = Some(w.nodes[0].next_seq - 1);
        }

        fn deliver(&mut self, w: &mut World, i: usize) {
            let (_, at, Msg::StealReq { thief, .. }) = w.wire[i] else {
                unreachable!("only steals are in flight")
            };
            let (thief, hungry) = (thief as usize, w.nodes[at].tasks.hungry);
            let (known, before) = (w.nodes[at].known_vc.clone(), w.log.len());
            w.handle(i);
            let sent: Vec<_> = w.log[before..].iter().map(|e| (e.0, e.1, e.2)).collect();
            if at != 0 {
                // The empty hop forwards once, marks its deque, and owes
                // the thief no notice.
                assert_eq!(sent, [(at, 0, "steal_req")]);
                assert!(w.nodes[at].tasks.hungry);
                assert_eq!(w.nodes[at].known_vc, known);
                return;
            }
            assert_eq!(sent, [(0, thief, "steal_rep")]);
            let Some((_, Msg::StealRep { taken, .. })) = w.inbox[thief].back() else {
                panic!("node {thief} expected a steal reply")
            };
            // Only an empty answer sets the flag.
            let empty = taken.task.is_none();
            assert_eq!(w.nodes[0].tasks.hungry, hungry || empty);
        }

        fn leaf(&mut self, mut w: World) {
            assert_eq!(self.pushed, Some(1), "the push closed the open interval");
            let mut takers = Vec::new();
            for thief in [1, 2] {
                assert_eq!(w.inbox[thief].len(), 1, "one reply to node {thief}");
                let (src, rep) = w.inbox[thief].pop_front().unwrap();
                assert_eq!(src, 0, "node 0 answers");
                takers.extend(w.nodes[thief].on_steal(src, rep).task.map(|t| (thief, t)));
            }
            takers.extend(w.nodes[0].task_take(SCOPE, None).task.map(|t| (0, t)));
            let [(winner, (TASK, FRAME))] = takers[..] else {
                panic!("the task is taken once: {takers:?}")
            };
            // The winner acquired the push's interval: its read of the
            // page fetches node 0's byte.
            assert!(w.nodes[winner].acquired.covers(0, 1));
            assert_eq!(w.read(winner, PAGE)[5], 42);
            // A chain asks 2 victims with 3 messages, the empty hop
            // forwarding once; a direct steal asks 1 with 2.
            let chained = usize::from(self.chain);
            let hop = |e: &(usize, usize, &str, usize)| (e.0, e.1, e.2) == (2, 0, "steal_req");
            assert_eq!(w.log.iter().filter(|e| hop(e)).count(), 1 + chained);
            let sent = w.tally(true);
            assert_eq!(sent["steal_req"].0, 2 + chained as u64);
            assert_eq!(sent["steal_rep"].0, 2);
            assert!(!sent.keys().any(|k| k.starts_with("lock")));
        }
    }

    #[test]
    fn a_push_and_two_steals_in_every_delivery_order() {
        assert_eq!(World::explore(&Steals::default()).len(), 6);
    }

    #[test]
    fn a_chain_and_a_direct_steal_in_every_delivery_order() {
        // The push, the chain's two hops and the direct steal: 4! / 2
        // orders.
        let walk = Steals {
            chain: true,
            pushed: None,
        };
        assert_eq!(World::explore(&walk).len(), 12);
    }

    /// The first barrier's walk: each of 3 nodes twins its slot of page
    /// 0, which subscribes the page, and node 1 page 1 too, which nobody
    /// else subscribes to. The arrivals in flight attach those diffs on
    /// speculation. Each departure (`departs`, printed) carries the other
    /// two writers' diffs of page 0 and none of page 1, and every read
    /// after them sends nothing.
    #[derive(Clone, Default)]
    struct FirstBarrier {
        departs: Vec<String>,
    }

    impl Walk for FirstBarrier {
        fn start(&self) -> World {
            let mut w = World::new(N);
            for k in 0..N {
                w.write(k, PAGE, 16 * (k + 1), k as u8 + 1);
            }
            w.write(1, 1, 0, 9);
            for k in 0..N {
                let arrive = w.nodes[k].arrive_request(0, false);
                w.send(k, arrive);
            }
            w
        }

        fn leaf(&mut self, mut w: World) {
            for k in 0..N {
                let (src, depart) = w.inbox[k].pop_front().expect("a departure");
                self.departs.push(format!("{depart:?}"));
                let Msg::BarrierDepart { acq, .. } = &depart else {
                    panic!("node {k} expected a departure")
                };
                let mut from: Vec<_> = acq.updates.iter().map(|u| (u.0, u.1.node)).collect();
                from.sort();
                let others = (0..N as u32).filter(|&j| j != k as u32).map(|j| (PAGE, j));
                assert_eq!(from, others.collect::<Vec<_>>());
                assert!(w.nodes[k].on_depart(0, src, depart).is_none());
            }
            for k in 0..N {
                let rounds = w.fault(k, &[PAGE], true);
                assert!(rounds.is_empty(), "node {k} sent {rounds:?}");
            }
            let page = w.read(0, PAGE);
            assert_eq!([page[16], page[32], page[48]], [1, 2, 3]);
        }
    }

    #[test]
    fn a_first_barrier_departs_alike_in_every_arrival_order() {
        let runs = World::explore(&FirstBarrier::default());
        assert_eq!(runs.len(), 6);
        for run in &runs {
            assert_eq!(run.departs, runs[0].departs, "alike in every order");
        }
    }

    /// The master's two intervals that its first fork carries.
    const FORKED: [(PageId, IntervalId); 2] = [
        (PAGE, IntervalId { node: 0, seq: 1 }),
        (1, IntervalId { node: 0, seq: 2 }),
    ];

    /// The first fork's walk: the master writes its slot of page 0, then
    /// byte 0 of page 1, in two intervals of its sequential section and
    /// forks: the job's first fork, which attaches both diffs to each
    /// slave on speculation. A slave's program takes its fork, then
    /// writes its slot of page 0 and arrives at the first barrier; the
    /// master's only arrives (each node's steps taken). In every order of
    /// those steps and of the arrivals' deliveries, a slave's write
    /// faults and finds the master's diff held, and after the departures
    /// every node reads both pages with no request, each fault applying
    /// its planned set (`World::fault`). No departure carries a diff the
    /// fork did: the master's speculative arrival leaves them out.
    #[derive(Clone)]
    struct FirstFork([usize; N]);

    impl Walk for FirstFork {
        fn start(&self) -> World {
            let mut w = World::new(N);
            w.write(0, PAGE, 16, 7);
            w.nodes[0].close_interval();
            w.write(0, 1, 0, 9);
            let region = Region {
                f: Arc::new(|_| {}),
                payload_bytes: 0,
            };
            let (forks, gc) = w.nodes[0].fork_request(&region);
            assert!(gc.is_none(), "a first fork runs no GC round");
            forks.into_iter().for_each(|fork| w.send(0, fork));
            w
        }

        fn ready(&self, _: &World, k: usize) -> bool {
            self.0[k] < 2
        }

        fn step(&mut self, w: &mut World, k: usize) {
            self.0[k] += 1;
            if self.0[k] == 1 {
                let Some((src, Msg::Fork { acq, gc, .. })) = w.inbox[k].pop_front() else {
                    panic!("node {k} expected a fork")
                };
                let ids: Vec<_> = acq.updates.iter().map(|u| (u.0, u.1)).collect();
                assert_eq!(ids, FORKED);
                assert!(w.nodes[k].on_fork(src, acq, gc).is_none());
                return;
            }
            w.write(k, PAGE, 16 * (k + 1), k as u8 + 1);
            let arrive = w.nodes[k].arrive_request(0, false);
            w.send(k, arrive);
        }

        fn leaf(&mut self, mut w: World) {
            for k in 0..N {
                let (src, depart) = w.inbox[k].pop_front().expect("a departure");
                let Msg::BarrierDepart { acq, .. } = &depart else {
                    panic!("node {k} expected a departure")
                };
                let twice = acq.updates.iter().find(|u| FORKED.contains(&(u.0, u.1)));
                assert!(twice.is_none(), "{twice:?} rode the fork");
                assert!(w.nodes[k].on_depart(0, src, depart).is_none());
            }
            for k in 0..N {
                let rounds = w.fault(k, &[PAGE, 1], true);
                assert!(rounds.is_empty(), "node {k} sent {rounds:?}");
                let page = w.read(k, PAGE).to_vec();
                assert_eq!([page[16], page[32], page[48]], [1, 2, 3]);
                assert_eq!(w.read(k, 1)[0], 9);
            }
            let asked = w.log.iter().find(|e| e.2 == "diff_req");
            assert!(asked.is_none(), "{asked:?}");
        }
    }

    #[test]
    fn a_first_fork_and_arrivals_in_every_delivery_order() {
        // A slave's fork, arrival and its delivery, twice, and the
        // master's arrival and its delivery: 8! / (3! 3! 2!) orders.
        assert_eq!(World::explore(&FirstFork([1, 0, 0])).len(), 560);
    }

    #[test]
    fn a_task_done_carries_the_writes_of_the_children_it_joins() {
        // Node 1 steals a child of node 0's frame, writes byte 9 and
        // completes it, which sends nothing: no join waits for it. Node
        // 0's taskwait then joins node 1, whose answer must carry the
        // child's write.
        let mut w = World::new(2);
        assert_eq!(w.nodes[0].task_push(SCOPE, TASK, FRAME, 4), Some(false));
        steal(&mut w, 1, &[0]);
        w.pump();
        let (src, rep) = w.inbox[1].pop_front().expect("a steal reply");
        let taken = w.nodes[1].on_steal(src, rep);
        assert_eq!(taken.task, Some((TASK, FRAME)));
        w.write(1, PAGE, 9, 5);
        assert!(w.nodes[1].task_complete(SCOPE, (0, FRAME), 0).is_none());
        let joins = w.nodes[0].task_join(SCOPE, FRAME).expect("no child here");
        joins.into_iter().for_each(|join| w.send(0, join));
        assert_eq!(w.nodes[0].task_joined(FRAME), None, "the join is owed");
        w.pump();
        assert_eq!(w.nodes[0].task_joined(FRAME), Some(0));
        assert!(w.nodes[0].acquired.covers(1, 1), "the child's interval");
        assert_eq!(w.read(0, PAGE)[9], 5);
        let sent = w.tally(true);
        assert_eq!((sent["task_join"].0, sent["task_done"].0), (1, 1));
    }

    /// The join arm's walk on 3 nodes (DESIGN.md §2i): node 0's task,
    /// frame `FRAME`, has pushed two children, and nodes 1 and 2 each
    /// have a steal of node 0 in flight. Node 0's one program step is
    /// its taskwait: it runs its children still queued and sends each
    /// thief its join. A thief's step takes its steal reply and, with a
    /// child, writes its byte of the page and completes the child. The
    /// run keeps, per node, whether it stole a child, the interval its
    /// completion closed, and whether its join reached it; and the joins
    /// that reached a thief before its child completed (`kept`).
    #[derive(Clone, Default)]
    struct Joins {
        waited: bool,
        stole: [bool; 3],
        completed: [Option<u32>; 3],
        joined: [bool; 3],
        kept: usize,
    }

    impl Joins {
        /// The waiter is released only once every stolen child
        /// completed.
        fn check(&self, w: &World) {
            if self.waited && w.nodes[0].task_joined(FRAME).is_some() {
                for k in 1..3 {
                    assert!(!self.stole[k] || self.completed[k].is_some(), "node {k}");
                }
            }
        }
    }

    impl Walk for Joins {
        fn start(&self) -> World {
            let mut w = World::new(3);
            for a in [1, 2] {
                assert!(w.nodes[0].task_push(SCOPE, [a; 4], FRAME, 4).is_some());
            }
            steal(&mut w, 1, &[0]);
            steal(&mut w, 2, &[0]);
            w
        }

        fn ready(&self, w: &World, k: usize) -> bool {
            if k == 0 {
                !self.waited
            } else {
                !w.inbox[k].is_empty()
            }
        }

        fn step(&mut self, w: &mut World, k: usize) {
            if k == 0 {
                self.waited = true;
                while let Some((_, frame)) = w.nodes[0].task_take(SCOPE, Some(FRAME)).task {
                    assert!(w.nodes[0].task_complete(SCOPE, (0, frame), 0).is_none());
                }
                let joins = w.nodes[0].task_join(SCOPE, FRAME).expect("no child here");
                let mut thieves: Vec<_> = joins.iter().map(|j| j.0).collect();
                thieves.sort_unstable();
                let stole: Vec<_> = (1..3).filter(|&k| self.stole[k]).collect();
                assert_eq!(thieves, stole, "one join to each thief");
                joins.into_iter().for_each(|join| w.send(0, join));
            } else {
                let (src, rep) = w.inbox[k].pop_front().expect("a steal reply");
                if let Some((_, frame)) = w.nodes[k].on_steal(src, rep).task {
                    w.write(k, PAGE, 16 * k, k as u8);
                    let done = w.nodes[k].task_complete(SCOPE, (0, frame), 0);
                    self.completed[k] = Some(w.nodes[k].next_seq - 1);
                    // The completion answers the join that waits for it.
                    assert_eq!(done.is_some(), self.joined[k]);
                    done.into_iter().for_each(|done| w.send(k, done));
                }
            }
            self.check(w);
        }

        fn deliver(&mut self, w: &mut World, i: usize) {
            let (src, at) = (w.wire[i].0, w.wire[i].1);
            let kind = w.wire[i].2.kind();
            let before = w.log.len();
            w.handle(i);
            let sent: Vec<_> = w.log[before..].iter().map(|e| (e.0, e.1, e.2)).collect();
            match kind {
                "steal_req" => {
                    let rep = w.inbox[src].back();
                    let got = matches!(rep, Some((_, Msg::StealRep { taken, .. })) if taken.task.is_some());
                    self.stole[src] = got;
                }
                "task_join" => {
                    // A join for a child already done is answered at once.
                    self.joined[at] = true;
                    let done = self.completed[at].is_some();
                    self.kept += usize::from(!done);
                    let at_once = [(at, 0, "task_done")];
                    assert_eq!(sent, if done { &at_once[..] } else { &[] });
                }
                _ => assert!(self.completed[src].is_some(), "an answer after its child"),
            }
            self.check(w);
        }

        fn leaf(&mut self, mut w: World) {
            assert!(self.waited);
            assert_eq!(
                w.nodes[0].task_joined(FRAME),
                Some(0),
                "the waiter is released"
            );
            // It holds each stolen child's interval, with its byte.
            for k in 1..3 {
                if let Some(seq) = self.completed[k] {
                    assert!(w.nodes[0].acquired.covers(k, seq), "node {k}'s child");
                    assert_eq!(w.read(0, PAGE)[16 * k], k as u8);
                }
            }
            // Each join gets exactly one answer.
            let sent = w.tally(true);
            let count = |kind| sent.get(kind).map_or(0, |e| e.0);
            let thieves = self.completed.iter().flatten().count() as u64;
            assert_eq!((count("task_join"), count("task_done")), (thieves, thieves));
        }
    }

    #[test]
    fn a_stolen_childs_completion_its_join_and_a_steal_in_every_order() {
        let runs = World::explore(&Joins::default());
        // By the number of children stolen: none when node 0's taskwait
        // runs before either steal reaches it, one when it runs between
        // them, two when it runs after both.
        let thieves = |r: &Joins| r.stole.iter().filter(|&&s| s).count();
        let by_thieves = [0, 1, 2].map(|n| runs.iter().filter(|r| thieves(r) == n).count());
        assert_eq!(by_thieves, [6, 52, 316]);
        // Both answers are walked: a join that waits for its child, and
        // one whose child is already done.
        let kept = runs.iter().filter(|r| r.kept > 0).count();
        assert_eq!(kept, 200);
    }

    /// The termination arm's walk on 3 nodes: every node's idle worker
    /// parks at node 0 and node 2 sends one wake, all in flight at the
    /// start; a woken node's next step parks it again. A model of node
    /// 0's state checks each park and wake delivered: the nodes `parked`,
    /// oldest first, whether the scope is `done`, the nodes `told` so,
    /// those `woken` and not parked again, and the wakes `dropped`.
    #[derive(Clone, Default)]
    struct Parks {
        parked: VecDeque<usize>,
        done: bool,
        told: Vec<usize>,
        woken: Vec<usize>,
        dropped: usize,
    }

    impl Walk for Parks {
        fn start(&self) -> World {
            let mut w = World::new(3);
            (0..3).for_each(|k| park(&mut w, k));
            w.send(2, (0, Msg::TermWake { scope: SCOPE }));
            w
        }

        fn ready(&self, _: &World, k: usize) -> bool {
            self.woken.contains(&k)
        }

        fn step(&mut self, w: &mut World, k: usize) {
            self.woken.retain(|&j| j != k);
            park(w, k);
        }

        fn deliver(&mut self, w: &mut World, i: usize) {
            let (src, _, msg) = &w.wire[i];
            let (src, idle) = (*src, matches!(msg, Msg::TermIdle { .. }));
            w.handle(i);
            let mut sent = Vec::new();
            for (k, inbox) in w.inbox.iter_mut().enumerate() {
                if let Some(&(from, Msg::TermGo { done })) = inbox.back() {
                    assert_eq!(from, 0, "only node 0 answers");
                    inbox.pop_back();
                    sent.push((k, done));
                }
            }
            // A park parks its node, and the last one ends the scope. A
            // wake with none parked is dropped, with no credit; else it
            // wakes the oldest parked node. Nothing follows the end.
            let mut want = Vec::new();
            if idle && !self.done {
                self.parked.push_back(src);
                self.done = self.parked.len() == w.nodes.len();
                if self.done {
                    want = self.parked.drain(..).map(|k| (k, true)).collect();
                }
            } else if !self.done {
                self.dropped += usize::from(self.parked.is_empty());
                want.extend(self.parked.pop_front().map(|k| (k, false)));
            }
            want.sort_unstable();
            assert_eq!(sent, want);
            self.told.extend(sent.iter().filter(|s| s.1).map(|s| s.0));
            self.woken.extend(sent.iter().filter(|s| !s.1).map(|s| s.0));
        }

        fn leaf(&mut self, w: World) {
            assert!(self.done, "the scope ended");
            let once = self.told.iter().copied().eq(0..w.nodes.len());
            assert!(once, "each node told once: {:?}", self.told);
            let answered = w.inbox.iter().all(VecDeque::is_empty);
            assert!(answered, "only TermGo answers, and each is taken");
            let sent = w.tally(true);
            assert_eq!(sent["term_idle"].0, sent["term_go"].0);
        }
    }

    #[test]
    fn three_parks_and_a_wake_in_every_delivery_order() {
        // The wake before any park (3! orders of the parks after it) or
        // after all three (3!); after one park (3 first parks, then 4! / 2
        // orders of the other two and the woken node's step and second
        // park); after two (3 × 2 first parks, then 3 orders of the last
        // park and the woken node's step and second park).
        let runs = World::explore(&Parks::default()).len();
        assert_eq!(runs, 6 + 6 + 3 * 12 + 6 * 3);
    }

    /// The dropped wake's walk on 2 nodes (DESIGN.md §8): node 1's marked
    /// steal of node 0 is in flight. Node 0's program pushes the task,
    /// which sends node 0 a `TermWake` if it cleared the mark, then takes
    /// the task if it is still there and parks. Node 1 takes its steal
    /// reply: with the task it steals again, without it parks. A woken
    /// node 1 steals again; a woken node 0 parks again (its sweep of node
    /// 1, whose deque stays empty, is left out). The run keeps node 0's
    /// `steps` taken, the nodes that took the task, and whether node 1
    /// parked after a dropped wake while node 0's deque held the task,
    /// unmarked (`stranded`).
    #[derive(Clone, Default)]
    struct DroppedWake {
        term: Parks,
        steps: usize,
        takers: Vec<usize>,
        stranded: bool,
    }

    impl Walk for DroppedWake {
        fn start(&self) -> World {
            let mut w = World::new(2);
            steal(&mut w, 1, &[0]);
            w
        }

        fn ready(&self, w: &World, k: usize) -> bool {
            let next = if k == 0 {
                self.steps < 2
            } else {
                !w.inbox[1].is_empty()
            };
            next || self.term.woken.contains(&k)
        }

        fn step(&mut self, w: &mut World, k: usize) {
            let woken = self.term.woken.contains(&k);
            self.term.woken.retain(|&j| j != k);
            match (k, woken) {
                (0, true) => park(w, 0),
                (0, false) => {
                    self.steps += 1;
                    if self.steps == 1 {
                        if w.nodes[0].task_push(SCOPE, TASK, FRAME, 4) == Some(true) {
                            w.send(0, (0, Msg::TermWake { scope: SCOPE }));
                        }
                        return;
                    }
                    if w.nodes[0].task_take(SCOPE, None).task.is_some() {
                        self.takers.push(0);
                    }
                    park(w, 0);
                }
                (_, true) => steal(w, 1, &[0]),
                (_, false) => {
                    let (src, rep) = w.inbox[1].pop_front().expect("a steal reply");
                    if w.nodes[1].on_steal(src, rep).task.is_some() {
                        self.takers.push(1);
                        steal(w, 1, &[0]);
                    } else {
                        park(w, 1);
                    }
                }
            }
        }

        fn deliver(&mut self, w: &mut World, i: usize) {
            let (src, _, msg) = &w.wire[i];
            if let Msg::StealReq { .. } = msg {
                return w.handle(i);
            }
            let parks = *src == 1 && matches!(msg, Msg::TermIdle { .. });
            self.term.deliver(w, i);
            let queued = w.nodes[0].task_backlog(SCOPE) == 1 && !w.nodes[0].tasks.hungry;
            self.stranded |= parks && self.term.dropped > 0 && queued;
        }

        fn leaf(&mut self, w: World) {
            assert_eq!(self.takers.len(), 1, "the task is taken exactly once");
            if self.stranded {
                assert_eq!(self.takers, [0], "node 0 runs the task itself");
            }
            self.term.leaf(w);
        }
    }

    #[test]
    fn a_steal_a_push_and_its_wake_in_every_delivery_order() {
        let runs = World::explore(&DroppedWake::default());
        assert_eq!(runs.len(), 170);
        // Node 0 drops the wake in the 21 runs in which the steal reaches
        // node 0 before the push, so the push clears the mark, and the
        // wake reaches node 0 before either node's park. In 3 of them
        // (the orders of node 1's reply, the push and the wake's delivery)
        // node 1's park then reaches node 0 before node 0 takes the task:
        // node 1 sleeps until the scope ends while the task waits in node
        // 0's unmarked deque.
        let drops = runs.iter().filter(|run| run.term.dropped > 0).count();
        let stranded = runs.iter().filter(|run| run.stranded).count();
        assert_eq!((drops, stranded), (21, 3));
    }

    #[test]
    fn a_full_copy_then_a_diff_runs_without_threads_as_with_them() {
        // Two nodes, GC at every barrier: node 1 writes byte 3, a
        // barrier's GC round drops node 0's notice for it, node 1 writes
        // byte 4, the join (whose GC round would run at a next fork, and
        // there is none), and node 0 reads the page: one `PageReq` to the
        // owner, then, in a second pass, one `DiffReq` to node 1.
        let mut w = World::new(2);
        w.write(1, PAGE, 3, 7);
        w.barrier(0, true, 0, false);
        w.write(1, PAGE, 4, 8);
        w.barrier(0, true, 0, true);
        let rounds = w.fault(0, &[PAGE], true);
        assert_eq!(rounds, [[(1, "page_req")], [(1, "diff_req")]]);
        let page = w.read(0, PAGE).to_vec();
        assert_eq!(page[3..5], [7, 8]);

        let mut cfg = TmkConfig::deterministic(2);
        cfg.gc_every_barrier = true;
        let page_size = cfg.page_size;
        let threaded = threaded(cfg, move |tmk| {
            let v = tmk.malloc_vec::<u8>(page_size);
            tmk.parallel(0, move |t| {
                if t.proc_id() == 1 {
                    t.write(&v, 3, 7);
                }
                t.barrier();
                if t.proc_id() == 1 {
                    t.write(&v, 4, 8);
                }
            });
            vec![tmk.read_slice(&v, 0..page_size)]
        });
        assert_eq!(threaded, outcome(&w, vec![page]));
    }

    #[test]
    fn a_semaphore_hand_off_and_a_flush_run_without_threads_as_with_them() {
        // Two nodes, semaphore 0 managed by node 0: node 1 waits, node 0
        // writes byte 0 and signals, which grants node 1 its notice; node
        // 1 fetches the diff to write byte 8, then flushes its interval
        // to node 0. A barrier, which carries node 1's diff to node 0 on
        // speculation (both twinned the page, so both subscribe to it);
        // both read the page, node 0 with no request, and the join.
        let mut w = World::new(2);
        assert!(!w.acquire(1, SEMA), "no signal yet: the wait queues");
        w.write(0, PAGE, 0, 1);
        w.release(0, SEMA, None);
        assert_eq!(
            w.nodes[1].pages[PAGE].unapplied.len(),
            1,
            "the grant's notice"
        );
        w.write(1, PAGE, 8, 2);
        w.flush(1);
        assert_eq!(
            w.nodes[0].pages[PAGE].unapplied.len(),
            1,
            "the flush's notice"
        );
        w.barrier(0, false, 0, false);
        let pages: Vec<_> = (0..2).map(|k| w.read(k, PAGE).to_vec()).collect();
        w.barrier(0, false, 0, true);
        assert!(pages.iter().all(|p| p[0] == 1 && p[8] == 2));
        let free = outcome(&w, pages);
        let want = [
            ("barrier_arrive", 2),
            ("barrier_depart", 1),
            ("diff_rep", 1),
            ("diff_req", 1),
            ("flush_ack", 1),
            ("flush_notice", 1),
            ("sema_grant", 1),
            ("sema_wait", 1),
        ];
        assert_eq!(free.0, BTreeMap::from(want));
        assert_eq!(
            (free.1.sema_signals, free.1.sema_waits, free.1.flushes),
            (1, 1, 1)
        );

        let cfg = TmkConfig::deterministic(2);
        let page_size = cfg.page_size;
        let threaded = threaded(cfg, move |tmk| {
            let v = tmk.malloc_vec::<u8>(page_size);
            let seen = Arc::new(Mutex::new(vec![Vec::new(); 2]));
            let pages = seen.clone();
            tmk.parallel(0, move |t| {
                let k = t.proc_id();
                if k == 0 {
                    t.write(&v, 0, 1);
                    t.sema_signal(0);
                } else {
                    t.sema_wait(0);
                    t.write(&v, 8, 2);
                    t.flush();
                }
                t.barrier();
                pages.lock()[k] = t.read_slice(&v, 0..page_size);
            });
            let pages = seen.lock().clone();
            pages
        });
        assert_eq!(threaded, free);
    }
}

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
    /// The diffs attached to arrivals, lock releases and condition waits.
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
        if let Msg::BarrierArrive { rel, .. }
        | Msg::LockRelease { rel, .. }
        | Msg::CondWait { rel, .. } = &mut msg
        {
            if self.strip != Strip::Nothing {
                rel.updates.clear();
            }
        }
        self.log.push((src, dst, msg.kind(), msg.wire_bytes()));
        match msg {
            Msg::Fork { .. } => self.inbox[dst].push_back((src, msg)),
            msg => self.wire.push_back((src, dst, msg)),
        }
    }

    /// Handle every request in flight, in send order; what each handler
    /// sends waits in the inboxes. A data request is answered once, to
    /// its asker, a `DiffRep` page by page in request order.
    pub fn pump(&mut self) {
        let mut out = Vec::new();
        while let Some((src, dst, msg)) = self.wire.pop_front() {
            let asked: Option<Vec<PageId>> = match &msg {
                Msg::DiffReq { pages } => Some(pages.iter().map(|(pid, _)| *pid).collect()),
                Msg::PageReq { .. } => Some(Vec::new()),
                _ => None,
            };
            on_request(&mut self.nodes[dst], src, msg, 0, &mut out);
            if let Some(asked) = asked {
                let one = matches!(&out[..], [(to, _)] if *to == src && src != dst);
                assert!(one, "one reply, to the asker");
                if let [(_, Msg::DiffRep { pages })] = &out[..] {
                    assert!(pages.iter().map(|(pid, _)| *pid).eq(asked), "request order");
                }
            }
            for (to, reply) in out.drain(..) {
                self.log.push((dst, to, reply.kind(), reply.wire_bytes()));
                self.inbox[to].push_back((dst, reply));
            }
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
    /// riders, and a GC round the join called runs then.
    fn region(&mut self, first: usize, gc: bool, arg: u32, (pid, off, val): (PageId, usize, u8)) {
        let n = self.nodes.len();
        self.barrier(first, gc, arg, true);
        assert_eq!(self.nodes[0].mgr.gc_in_progress, gc);
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
        // The second reads' three faults send nothing: each finds the
        // other writers' diffs held, delivered by barrier 2. The join
        // departs node 0 alone: 3 barriers and the join send 2 arrivals
        // each, the 3 barriers 2 departures each.
        let want = [
            ("barrier_arrive", 8),
            ("barrier_depart", 6),
            ("diff_rep", 4),
            ("diff_req", 4),
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
        // 418.
        assert_eq!(bytes, [590, 418, 158, 96, 48, 124, 145]);
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
        // to node 0. A barrier, both read the page (node 0 fetches node
        // 1's diff), and the join.
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
            ("diff_rep", 2),
            ("diff_req", 2),
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

//! Per-node task deques and task frames of the OpenMP tasking runtime
//! (DESIGN.md §2i).
//!
//! A node's deque lives in its [`NodeState`], under the state lock its
//! application and service threads share, and never in DSM pages. The
//! owner pushes, pops and counts completions with no message. A thief's
//! sweep is one chain of [`Msg::StealReq`]s: each victim with nothing
//! to give forwards the request to the next one it names, and the hop
//! that finds a task, or the last hop, answers the thief with one
//! [`Msg::StealRep`]. The reply carries the oldest task, its parent's
//! frame, what is left behind, and the notices the thief lacks: a push
//! closes the open interval first, so they hold everything the spawner
//! wrote before it. A hop that forwards owes the thief no notice.
//!
//! A `taskwait` waits for the waiting task's children only. Each queued
//! task carries its parent's *frame*, a number on the parent's node,
//! whose record counts the children still there and, per thief, those
//! it stole. With none left there, the waiter sends each thief one
//! [`Msg::TaskJoin`], which the thief answers with one [`Msg::TaskDone`]
//! carrying the children's writes, once it has completed them. A stolen
//! child whose parent never waits sends nothing.
//!
//! Only a thief's empty take marks a deque hungry, never the owner's:
//! a node's own push is never owed to that node. Node 0's deque also
//! keeps the scope's termination state: the idle workers parked there
//! by [`Msg::TermIdle`], in arrival order, and whether the scope is
//! over. A push that clears a hungry flag sends one [`Msg::TermWake`],
//! which node 0 answers by waking its oldest parked worker
//! ([`Msg::TermGo`]), or drops when none is parked; when all `n` nodes
//! are parked, every one of them gets `TermGo { done: true }`.

use crate::interval::VectorClock;
use crate::protocol::Msg;
use crate::state::NodeState;
use std::collections::{BTreeMap, HashMap, VecDeque};

/// One task's argument words.
pub type Task = [u64; 4];

/// What one take found.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Taken {
    /// The task taken, if the deque held one, and its parent's frame.
    pub task: Option<(Task, u32)>,
    /// Tasks left in the deque: a thief's hint for ranking victims.
    pub backlog: u64,
}

/// Who takes from a deque.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Taker {
    /// The owner: the newest task, or a waiter's frame's newest child.
    Owner(Option<u32>),
    /// A thief: the oldest task, FIFO. An empty deque is flagged hungry.
    Thief,
}

/// One task's children, on its node: what its `taskwait` waits for.
#[derive(Debug, Default)]
struct Frame {
    /// Children queued here or running on a local thread.
    local: u64,
    /// Children stolen since the last join, by thief.
    stolen: BTreeMap<usize, u64>,
    /// Joins sent and not answered yet.
    owed: usize,
    /// When the last child done here completed or answer arrived.
    done_vt: u64,
}

/// A thief's record of another node's frame whose children it stole:
/// how many it completed since the frame's last join, and a join that
/// came before they were (its child count and the waiter's clock).
#[derive(Debug, Default)]
struct Stolen {
    done: u64,
    join: Option<(u64, VectorClock)>,
}

/// A node's deque and task frames for the task scope it has open.
/// Scopes are numbered from 1 in a job; a newer one replaces the last.
#[derive(Debug, Default)]
pub struct TaskDeque {
    /// The scope the deque belongs to (0: none yet).
    scope: u32,
    /// Queued tasks with their parents' frames.
    tasks: VecDeque<(Task, u32)>,
    /// A thief's empty take saw the deque empty (a would-be sleeper's
    /// sweep): the next push clears it and wakes one sleeper.
    pub hungry: bool,
    /// The frames of this node's tasks that have children, by number.
    frames: HashMap<u32, Frame>,
    /// The frames of other nodes' tasks whose children this node stole,
    /// by parent node and frame.
    stolen: HashMap<(usize, u32), Stolen>,
    /// Node 0 only: the nodes whose idle worker is parked here, oldest first.
    parked: VecDeque<usize>,
    /// Node 0 only: every node parked, and the scope is over.
    done: bool,
}

impl TaskDeque {
    /// The deque of `scope`, fresh if this node has not opened it yet (a
    /// thief's request may open it first). No node sees a scope again
    /// once a newer one is open: a thief waits for its reply inside the
    /// scope, so the scope's join cannot end before it.
    fn open(&mut self, scope: u32) -> &mut Self {
        assert!(
            scope >= self.scope,
            "task scope {scope} after {}",
            self.scope
        );
        if scope > self.scope {
            *self = TaskDeque {
                scope,
                ..Default::default()
            };
        }
        self
    }

    /// The record of this node's `frame` in `scope`, which has children.
    fn frame(&mut self, scope: u32, frame: u32) -> &mut Frame {
        let frames = &mut self.open(scope).frames;
        frames.get_mut(&frame).expect("a frame with children")
    }

    /// Push `task`, a child of `frame`, at the owner's end unless `cap`
    /// tasks are queued. `None` when full; else whether the push cleared
    /// a hungry flag.
    fn push(&mut self, scope: u32, task: Task, frame: u32, cap: usize) -> Option<bool> {
        let dq = self.open(scope);
        if dq.tasks.len() >= cap {
            return None;
        }
        dq.tasks.push_back((task, frame));
        dq.frames.entry(frame).or_default().local += 1;
        Some(std::mem::take(&mut dq.hungry))
    }

    /// Tasks queued in this deque of `scope` (0 if another is open).
    fn backlog(&self, scope: u32) -> u64 {
        if scope == self.scope {
            self.tasks.len() as u64
        } else {
            0
        }
    }

    /// Take a task of `scope` as `who` takes ([`Taker`]).
    fn take(&mut self, scope: u32, who: Taker) -> Taken {
        let dq = self.open(scope);
        let task = match who {
            Taker::Owner(None) => dq.tasks.pop_back(),
            Taker::Owner(Some(frame)) => {
                let newest = dq.tasks.iter().rposition(|&(_, f)| f == frame);
                newest.and_then(|i| dq.tasks.remove(i))
            }
            Taker::Thief => dq.tasks.pop_front(),
        };
        dq.hungry |= who == Taker::Thief && task.is_none();
        Taken {
            task,
            backlog: dq.tasks.len() as u64,
        }
    }
}

impl NodeState {
    /// Push `task`, a child of this node's `frame`, onto this node's
    /// deque of `scope` (at most `cap` queued), closing the open interval
    /// first so a thief's reply carries what was written before the push.
    /// `None` when full; else whether a hungry flag was cleared.
    pub fn task_push(&mut self, scope: u32, task: Task, frame: u32, cap: usize) -> Option<bool> {
        self.close_interval();
        self.tasks.push(scope, task, frame, cap)
    }

    /// The owner's take from this node's deque of `scope`: the newest
    /// task, or with `frame` the newest child of that frame. Never marks.
    pub fn task_take(&mut self, scope: u32, frame: Option<u32>) -> Taken {
        self.tasks.take(scope, Taker::Owner(frame))
    }

    /// Tasks queued in this node's deque of `scope`.
    pub fn task_backlog(&self, scope: u32) -> u64 {
        self.tasks.backlog(scope)
    }

    /// A task, a child of `frame` on node `parent`, completed here at
    /// virtual time `vt`. Closes the open interval first, so an answer to
    /// the frame's join carries the task's writes: the [`Msg::TaskDone`]
    /// to send when the child is the last one a waiting join counts.
    pub fn task_complete(
        &mut self,
        scope: u32,
        (parent, frame): (usize, u32),
        vt: u64,
    ) -> Option<(usize, Msg)> {
        self.close_interval();
        if parent != self.id {
            let stolen = &mut self.tasks.open(scope).stolen;
            stolen.entry((parent, frame)).or_default().done += 1;
            return self.answer_join(parent, (scope, frame));
        }
        let f = self.tasks.frame(scope, frame);
        (f.local, f.done_vt) = (f.local - 1, f.done_vt.max(vt));
        None
    }

    /// The waiter's joins of its `frame` of `scope`: `None` while a child
    /// is still here; else a [`Msg::TaskJoin`] to each thief since the
    /// last join, naming how many it stole.
    pub fn task_join(&mut self, scope: u32, frame: u32) -> Option<Vec<(usize, Msg)>> {
        let Some(f) = self.tasks.open(scope).frames.get_mut(&frame) else {
            return Some(Vec::new());
        };
        if f.local > 0 {
            return None;
        }
        f.owed += f.stolen.len();
        let (frame, vc) = ((scope, frame), &self.processed_vc);
        let join = |stolen| Msg::TaskJoin {
            frame,
            stolen,
            vc: vc.clone(),
        };
        let thieves = std::mem::take(&mut f.stolen).into_iter();
        Some(thieves.map(|(k, stolen)| (k, join(stolen))).collect())
    }

    /// When the last child of the open scope's `frame` was done, once
    /// every join is answered.
    pub fn task_joined(&self, frame: u32) -> Option<u64> {
        match self.tasks.frames.get(&frame) {
            Some(f) if f.owed > 0 => None,
            f => Some(f.map_or(0, |f| f.done_vt)),
        }
    }

    /// A thief's half of a [`Msg::TaskJoin`] from `waiter`: answer it at
    /// once if its children are done here, else keep it.
    pub fn serve_task_join(&mut self, waiter: usize, join: Msg) -> Option<(usize, Msg)> {
        let Msg::TaskJoin { frame, stolen, vc } = join else {
            panic!("expected TaskJoin, got {}", now_net::Wire::kind(&join))
        };
        let rec = self.tasks.open(frame.0).stolen.entry((waiter, frame.1));
        rec.or_default().join = Some((stolen, vc));
        self.answer_join(waiter, frame)
    }

    /// Answer `waiter`'s join of its `frame` once every child it counts
    /// is done here, with the notices the waiter lacks, as a grant.
    fn answer_join(&mut self, waiter: usize, frame: (u32, u32)) -> Option<(usize, Msg)> {
        let stolen = &mut self.tasks.open(frame.0).stolen;
        let rec = stolen.get(&(waiter, frame.1))?;
        rec.join
            .as_ref()
            .filter(|(children, _)| *children <= rec.done)?;
        let (_, vc) = stolen.remove(&(waiter, frame.1))?.join?;
        let bundle = self.grant_to(waiter, &vc);
        Some((waiter, Msg::TaskDone { frame, bundle }))
    }

    /// The waiter's service-thread half of a [`Msg::TaskDone`] from
    /// `thief`, arrived at `arrival_vt`: acquire it for the waiter.
    pub fn on_task_done(&mut self, thief: usize, done: Msg, arrival_vt: u64) {
        let Msg::TaskDone { frame, bundle } = done else {
            panic!("expected TaskDone, got {}", now_net::Wire::kind(&done))
        };
        self.acquire(thief, &bundle);
        let f = self.tasks.frame(frame.0, frame.1);
        (f.owed, f.done_vt) = (f.owed - 1, f.done_vt.max(arrival_vt));
    }

    /// The request half of a steal sweep over `victims`' deques of
    /// `scope`, asked in order by one chain: with our processed clock
    /// (the reply's filter), sent to the first victim.
    pub fn steal_request(&self, victims: &[usize], scope: u32) -> (usize, Msg) {
        let (&first, rest) = victims.split_first().expect("a victim to ask");
        debug_assert!(
            !victims.contains(&self.id),
            "a node does not steal from itself"
        );
        let wire = |k: usize| u16::try_from(k).expect("a node id fits its 2 wire bytes");
        let req = Msg::StealReq {
            scope,
            vc: self.processed_vc.clone(),
            thief: wire(self.id),
            rest: rest.iter().map(|&k| wire(k)).collect(),
        };
        (first, req)
    }

    /// A victim's half of a [`Msg::StealReq`]: take the oldest task of
    /// its scope for its thief, marking an empty deque, and count it
    /// stolen in its parent's frame. With nothing taken and victims
    /// still to ask, forward the same request to the next one and answer
    /// nothing; else answer the thief with the take and the notices it
    /// lacks.
    pub fn serve_steal(&mut self, mut req: Msg) -> (usize, Msg) {
        let Msg::StealReq {
            scope,
            vc,
            thief,
            rest,
        } = &mut req
        else {
            panic!("expected StealReq, got {}", now_net::Wire::kind(&req))
        };
        let taken = self.tasks.take(*scope, Taker::Thief);
        let thief = *thief as usize;
        if let Some((_, frame)) = taken.task {
            let f = self.tasks.frame(*scope, frame);
            f.local -= 1;
            *f.stolen.entry(thief).or_default() += 1;
        } else if !rest.is_empty() {
            let next = rest.remove(0) as usize;
            return (next, req);
        }
        let bundle = self.grant_to(thief, vc);
        (thief, Msg::StealRep { taken, bundle })
    }

    /// Node 0's half of an idle worker's park: park `src` in `scope`;
    /// once all `n` nodes are parked the scope is over, and each of them
    /// is told so, oldest first.
    pub fn serve_term_idle(&mut self, src: usize, scope: u32, out: &mut Vec<(usize, Msg)>) {
        debug_assert_eq!(self.id, 0, "idle workers park at node 0");
        let dq = self.tasks.open(scope);
        if dq.done {
            out.push((src, Msg::TermGo { done: true }));
            return;
        }
        dq.parked.push_back(src);
        if dq.parked.len() == self.n {
            dq.done = true;
            out.extend(dq.parked.drain(..).map(|k| (k, Msg::TermGo { done: true })));
        }
    }

    /// Node 0's half of a wake: wake the oldest parked worker of
    /// `scope`. With none parked the wake is dropped and leaves nothing
    /// behind: its pusher is running, so its task runs or is stolen.
    pub fn serve_term_wake(&mut self, scope: u32, out: &mut Vec<(usize, Msg)>) {
        debug_assert_eq!(self.id, 0, "idle workers park at node 0");
        let dq = self.tasks.open(scope);
        if dq.done {
            return;
        }
        if let Some(k) = dq.parked.pop_front() {
            out.push((k, Msg::TermGo { done: false }));
        }
    }

    /// The reply half of a steal: acquire the reply's notices and return
    /// what the answering victim `src`'s take found.
    pub fn on_steal(&mut self, src: usize, msg: Msg) -> Taken {
        let Msg::StealRep { taken, bundle } = msg else {
            panic!("expected StealRep, got {}", now_net::Wire::kind(&msg))
        };
        self.acquire(src, &bundle);
        taken
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_owner_pops_newest_and_a_thief_takes_oldest() {
        let mut dq = TaskDeque::default();
        for a in 1..=3 {
            assert_eq!(dq.push(1, [a, 0, 0, 0], 9, 8), Some(false));
        }
        let owner = dq.take(1, Taker::Owner(None));
        assert_eq!((owner.task, owner.backlog), (Some(([3, 0, 0, 0], 9)), 2));
        let thief = dq.take(1, Taker::Thief);
        assert_eq!((thief.task, thief.backlog), (Some(([1, 0, 0, 0], 9)), 1));
    }

    #[test]
    fn a_waiter_takes_only_the_newest_child_of_its_frame() {
        let mut dq = TaskDeque::default();
        for (a, frame) in [(1, 5), (2, 6), (3, 5), (4, 6)] {
            assert_eq!(dq.push(1, [a, 0, 0, 0], frame, 8), Some(false));
        }
        assert_eq!(dq.frames[&5].local, 2);
        let child = dq.take(1, Taker::Owner(Some(5)));
        assert_eq!((child.task, child.backlog), (Some(([3, 0, 0, 0], 5)), 3));
        assert_eq!(
            dq.take(1, Taker::Owner(Some(5))).task,
            Some(([1, 0, 0, 0], 5))
        );
        assert_eq!(
            dq.take(1, Taker::Owner(Some(5))).task,
            None,
            "frame 5 has none left"
        );
        assert_eq!(dq.take(1, Taker::Owner(None)).task, Some(([4, 0, 0, 0], 6)));
    }

    #[test]
    fn a_full_deque_refuses_and_a_marked_empty_take_makes_it_hungry() {
        let mut dq = TaskDeque::default();
        assert_eq!(dq.push(1, [0; 4], 0, 1), Some(false));
        assert_eq!(dq.push(1, [0; 4], 0, 1), None, "full");
        assert!(dq.take(1, Taker::Thief).task.is_some());
        assert!(!dq.hungry, "a take that found a task marks nothing");
        assert!(dq.take(1, Taker::Owner(None)).task.is_none());
        assert!(!dq.hungry, "the owner's empty take marks nothing");
        assert!(dq.take(1, Taker::Thief).task.is_none());
        assert!(dq.hungry);
        assert_eq!(dq.push(1, [0; 4], 0, 1), Some(true), "the push clears it");
        assert!(!dq.hungry);
    }

    #[test]
    fn a_request_for_an_unopened_scope_opens_it_and_keeps_its_mark() {
        let mut dq = TaskDeque::default();
        assert_eq!(dq.push(1, [0; 4], 0, 4), Some(false));
        // A thief already in scope 2 asks before this node opened it:
        // the answer is empty and the mark survives the opening push.
        let taken = dq.take(2, Taker::Thief);
        assert_eq!(taken, Taken::default());
        assert_eq!((dq.scope, dq.hungry), (2, true));
        assert_eq!(dq.push(2, [0; 4], 0, 4), Some(true));
    }

    #[test]
    #[should_panic(expected = "task scope 1 after 2")]
    fn an_older_scope_is_never_reopened() {
        let mut dq = TaskDeque::default();
        dq.open(2);
        dq.open(1);
    }
}

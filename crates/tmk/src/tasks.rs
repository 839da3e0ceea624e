//! Per-node task deques of the OpenMP tasking runtime's work stealing
//! (DESIGN.md §2i).
//!
//! A node's deque lives in its [`NodeState`], under the state lock its
//! application and service threads share, and never in DSM pages. The
//! owner pushes, pops and counts completions with no message. A thief's
//! sweep is one chain of [`Msg::StealReq`]s: each victim with nothing
//! to give forwards the request to the next one it names, and the hop
//! that finds a task, or the last hop, answers the thief with one
//! [`Msg::StealRep`]. The reply carries the oldest task, what is left
//! behind, the deque's counters, and the notices the thief lacks, so it
//! sees everything the spawner wrote before the push. A push closes the
//! open interval first, which puts those writes into a notice the reply
//! can carry. A hop that forwards sends the thief nothing, so it owes
//! it no notice: nothing it took went to the thief.
//!
//! Only a thief's empty take marks a deque hungry, never the owner's:
//! a node's own push is never owed to that node. Node 0's deque also
//! keeps the scope's termination state: the idle workers parked there
//! by [`Msg::TermIdle`], in arrival order, and whether the scope is
//! over. A push that clears a hungry flag sends one [`Msg::TermWake`],
//! which node 0 answers by waking its oldest parked worker
//! ([`Msg::TermGo`]), or drops when none is parked; when all `n` nodes
//! are parked, every one of them gets `TermGo { done: true }`.

use crate::protocol::Msg;
use crate::state::NodeState;
use std::collections::VecDeque;

/// One task's argument words.
pub type Task = [u64; 4];

/// A deque's counters, as the quiescence test of `taskwait` sums them
/// over every node.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TaskCounts {
    /// Tasks pushed into the deque. A task in flight in a steal reply
    /// is spawned and not completed.
    pub spawned: u64,
    /// Tasks this node completed.
    pub completed: u64,
    /// Summed depths of the task chains suspended in `taskwait` here.
    pub waiting: u64,
}

impl std::ops::AddAssign for TaskCounts {
    fn add_assign(&mut self, other: TaskCounts) {
        self.spawned += other.spawned;
        self.completed += other.completed;
        self.waiting += other.waiting;
    }
}

/// What one take found.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Taken {
    /// The task taken, if the deque held one.
    pub task: Option<Task>,
    /// Tasks left in the deque: a thief's hint for ranking victims.
    pub backlog: u64,
    /// The deque's counters after the take.
    pub counts: TaskCounts,
}

/// Who takes from a deque.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Taker {
    /// The owner: the newest task, LIFO for locality. It never marks.
    Owner,
    /// A thief: the oldest task, FIFO. With `mark`, an empty deque is
    /// flagged hungry.
    Thief { mark: bool },
}

/// A node's deque for the task scope it has open. Scopes are numbered
/// from 1 within a job; the deque of a newer one replaces the last.
#[derive(Debug, Default)]
pub struct TaskDeque {
    /// The scope the deque belongs to (0: none yet).
    scope: u32,
    tasks: VecDeque<Task>,
    /// A thief's empty take with `mark` saw the deque empty (a
    /// would-be sleeper's sweep): the next push clears it and wakes one
    /// sleeper.
    pub hungry: bool,
    counts: TaskCounts,
    /// Node 0 only: the nodes whose idle worker is parked here, oldest
    /// first.
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

    /// Push `task` at the owner's end unless `cap` tasks are queued.
    /// `None` when full; else whether the push cleared a hungry flag.
    fn push(&mut self, scope: u32, task: Task, cap: usize) -> Option<bool> {
        let dq = self.open(scope);
        if dq.tasks.len() >= cap {
            return None;
        }
        dq.tasks.push_back(task);
        dq.counts.spawned += 1;
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
            Taker::Owner => dq.tasks.pop_back(),
            Taker::Thief { .. } => dq.tasks.pop_front(),
        };
        dq.hungry |= who == Taker::Thief { mark: true } && task.is_none();
        Taken {
            task,
            backlog: dq.tasks.len() as u64,
            counts: dq.counts,
        }
    }
}

impl NodeState {
    /// Push `task` onto this node's deque of `scope` (at most `cap`
    /// queued): close the open interval, so a thief's reply carries the
    /// notices of what was written before the push, then enqueue. `None`
    /// when the deque is full; else whether a hungry flag was cleared,
    /// meaning a sleeper must be woken.
    pub fn task_push(&mut self, scope: u32, task: Task, cap: usize) -> Option<bool> {
        self.close_interval();
        self.tasks.push(scope, task, cap)
    }

    /// The owner's take from this node's deque of `scope` ([`Taken`]).
    /// It never marks the deque hungry.
    pub fn task_take(&mut self, scope: u32) -> Taken {
        self.tasks.take(scope, Taker::Owner)
    }

    /// Tasks queued in this node's deque of `scope`.
    pub fn task_backlog(&self, scope: u32) -> u64 {
        self.tasks.backlog(scope)
    }

    /// Count one task completed by this node. Closes the open interval
    /// first, so a reply that reports the completion carries the notices
    /// of the task's writes (what a `taskwait` acquires).
    pub fn task_complete(&mut self, scope: u32) {
        self.close_interval();
        self.tasks.open(scope).counts.completed += 1;
    }

    /// Add `delta` to the suspended depths summed in this node's
    /// `waiting` counter of `scope`.
    pub fn task_wait(&mut self, scope: u32, delta: i64) {
        let counts = &mut self.tasks.open(scope).counts;
        counts.waiting = counts.waiting.wrapping_add_signed(delta);
    }

    /// The request half of a steal sweep over `victims`' deques of
    /// `scope`, asked in order by one chain: with our processed clock
    /// (the reply's filter) and `mark`, sent to the first victim.
    pub fn steal_request(&self, victims: &[usize], scope: u32, mark: bool) -> (usize, Msg) {
        let (&first, rest) = victims.split_first().expect("a victim to ask");
        debug_assert!(
            !victims.contains(&self.id),
            "a node does not steal from itself"
        );
        let wire = |k: usize| u16::try_from(k).expect("a node id fits its 2 wire bytes");
        let req = Msg::StealReq {
            scope,
            vc: self.processed_vc.clone(),
            mark,
            thief: wire(self.id),
            rest: rest.iter().map(|&k| wire(k)).collect(),
        };
        (first, req)
    }

    /// A victim's half of a [`Msg::StealReq`]: take the oldest task of
    /// its scope for its thief, marking an empty deque under its `mark`.
    /// With nothing taken and victims still to ask, forward the same
    /// request to the next one and answer nothing; else answer the
    /// thief with the take and the notices it lacks.
    pub fn serve_steal(&mut self, mut req: Msg) -> (usize, Msg) {
        let Msg::StealReq {
            scope,
            vc,
            mark,
            thief,
            rest,
        } = &mut req
        else {
            panic!("expected StealReq, got {}", now_net::Wire::kind(&req))
        };
        let taken = self.tasks.take(*scope, Taker::Thief { mark: *mark });
        if taken.task.is_none() && !rest.is_empty() {
            let next = rest.remove(0) as usize;
            return (next, req);
        }
        let thief = *thief as usize;
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
            assert_eq!(dq.push(1, [a, 0, 0, 0], 8), Some(false));
        }
        let owner = dq.take(1, Taker::Owner);
        assert_eq!((owner.task, owner.backlog), (Some([3, 0, 0, 0]), 2));
        let thief = dq.take(1, Taker::Thief { mark: false });
        assert_eq!((thief.task, thief.backlog), (Some([1, 0, 0, 0]), 1));
        let counts = TaskCounts {
            spawned: 3,
            ..Default::default()
        };
        assert_eq!(thief.counts, counts, "a taken task is not completed");
    }

    #[test]
    fn a_full_deque_refuses_and_a_marked_empty_take_makes_it_hungry() {
        let mut dq = TaskDeque::default();
        assert_eq!(dq.push(1, [0; 4], 1), Some(false));
        assert_eq!(dq.push(1, [0; 4], 1), None, "full");
        assert!(dq.take(1, Taker::Thief { mark: true }).task.is_some());
        assert!(!dq.hungry, "a take that found a task marks nothing");
        assert!(dq.take(1, Taker::Thief { mark: false }).task.is_none());
        assert!(!dq.hungry, "an unmarked empty take marks nothing");
        assert!(dq.take(1, Taker::Owner).task.is_none());
        assert!(!dq.hungry, "the owner's empty take marks nothing");
        assert!(dq.take(1, Taker::Thief { mark: true }).task.is_none());
        assert!(dq.hungry);
        assert_eq!(dq.push(1, [0; 4], 1), Some(true), "the push clears it");
        assert!(!dq.hungry);
    }

    #[test]
    fn a_request_for_an_unopened_scope_opens_it_and_keeps_its_mark() {
        let mut dq = TaskDeque::default();
        assert_eq!(dq.push(1, [0; 4], 4), Some(false));
        // A thief already in scope 2 asks before this node opened it:
        // the answer is empty and the mark survives the opening push.
        let taken = dq.take(2, Taker::Thief { mark: true });
        assert_eq!(taken, Taken::default());
        assert_eq!((dq.scope, dq.hungry), (2, true));
        assert_eq!(dq.push(2, [0; 4], 4), Some(true));
    }

    #[test]
    #[should_panic(expected = "task scope 1 after 2")]
    fn an_older_scope_is_never_reopened() {
        let mut dq = TaskDeque::default();
        dq.open(2);
        dq.open(1);
    }
}

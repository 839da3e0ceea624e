//! Distributed OpenMP tasking: `task` / `taskwait` / `single` with
//! cross-node work stealing.
//!
//! The loop constructs of the SC'98 paper cover regular parallelism; its
//! only irregular-parallelism story is the hand-rolled Figure-4 task queue.
//! Modern cluster-OpenMP work (arXiv 2207.05677, arXiv 2205.10656) makes
//! *tasking* the construct that scales irregular workloads across nodes,
//! schedules tasks by runtime messages, and ships a task with its data in
//! one transfer. This module follows both:
//!
//! * **Task representation.** A task is the scope's executor function
//!   (shipped once with the region fork, exactly like the paper's outlined
//!   region bodies) plus a 32-byte POD argument block ([`TaskArgs`]).
//! * **Per-node deques.** Every workstation's deque lives in its own DSM
//!   node state (`tmk`'s task deque, DESIGN.md §2i), under the state lock
//!   its application and service threads share: local push, pop and
//!   completion take no lock, write no DSM page and send nothing. On SMP
//!   topologies a node's local threads share it.
//! * **Work stealing.** The owner pushes and pops LIFO (locality); a thief
//!   takes the oldest task FIFO. A scheduler sweep is one chain: the
//!   thief sends one `steal_req` naming its victims in order, a victim
//!   with nothing to give forwards it to the next, and the victim that
//!   finds a task, or the last, answers with one `steal_rep`, so asking
//!   `k` victims costs `k + 1` messages. `taskwait`'s sweeps ask each
//!   victim by a request of its own, whose reply carries that deque's
//!   counters. A reply carries the task, the backlog it left, the
//!   victim's counters, and the write notices the thief lacks: a push
//!   closes the spawner's interval first, so the thief sees everything
//!   written before it, as a lock grant would show it. Victim sweeps are
//!   **load-aware**: the thief orders victims by the backlog their last
//!   replies reported (a victim not yet asked ranks first) divided by
//!   the victim's current effective speed — the deque that will take
//!   longest to drain is raided first — with ties broken by a
//!   per-thief, per-sweep rotating offset so concurrent thieves do not
//!   convoy on one victim. The paper's own Figure-4 structure — one
//!   shared queue under `critical` — is the applications' `run_omp`
//!   programs, which the bench ablation compares against.
//! * **Pacing.** The simulator serves a steal request when the victim's
//!   service thread runs, in host time, and an owner's local pop costs
//!   it almost no host time. So an owner holds a local take while a
//!   thief on another node is in a sweep that began early enough, in
//!   virtual time, for its request to arrive first, until that sweep
//!   ends (off the meter, so the wait models no time). Without this a
//!   spawner drains a small tree before any request reaches it.
//! * **Termination by message.** An idle worker parks at node 0 with one
//!   `term_idle` and waits for its answer: woken, or the scope is over.
//!   The scheduler's sweeps mark every remote deque they find empty with
//!   a *hungry* flag (a marked steal request sets it at the victim,
//!   serialised with the victim's pushes under its state lock), so the
//!   sweep that finds nothing is the marking sweep, and a push that
//!   clears a flag sends node 0 one `term_wake`, which wakes the oldest
//!   parked worker or, with none parked, is dropped. An owner's take
//!   never marks its own deque: its own push is never owed to it, a
//!   remote node that parks marked the deque in its failed sweep, and a
//!   local sibling is woken by the push itself. The scope is over
//!   when all `p` nodes are parked: a parked node's deque is empty and
//!   stays so (only its owner pushes), and the pusher of a dropped wake
//!   is running, so it runs its task or loses it to a thief (the
//!   Figure-4 `nwait` argument, kept by node 0 instead of a DSM word).
//! * **Counters.** Spawn/execute/steal/overflow events are surfaced
//!   through [`tmk::TmkStats`]; steals also appear in the per-kind message
//!   statistics of `now_net` as `steal_req`/`steal_rep`.

use crate::env::Env;
use crate::thread::OmpThread;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use tmk::{Taken, TaskCounts};

/// POD argument block of one task (32 bytes). Encode whatever the task
/// body needs: indices, packed ranges, pool slots. Unused words are zero.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TaskArgs {
    /// First argument word.
    pub a: u64,
    /// Second argument word.
    pub b: u64,
    /// Third argument word.
    pub c: u64,
    /// Fourth argument word.
    pub d: u64,
}

impl TaskArgs {
    /// Arguments with the remaining words zero.
    pub fn ab(a: u64, b: u64) -> Self {
        TaskArgs { a, b, c: 0, d: 0 }
    }

    fn words(self) -> tmk::Task {
        [self.a, self.b, self.c, self.d]
    }

    fn from_words([a, b, c, d]: tmk::Task) -> Self {
        TaskArgs { a, b, c, d }
    }
}

/// Configuration of one task scope.
#[derive(Debug, Clone, Copy)]
pub struct TaskScopeConfig {
    /// Slots per deque. A full deque executes further spawns inline
    /// (OpenMP "undeferred" semantics) and counts an overflow.
    pub deque_capacity: usize,
    /// Modeled firstprivate-environment size added to the scope's fork
    /// message (see [`Env::parallel_sized`]); used by directive
    /// front-ends shipping a copied-in frame.
    pub fork_payload_bytes: usize,
}

impl Default for TaskScopeConfig {
    fn default() -> Self {
        TaskScopeConfig {
            deque_capacity: 1024,
            fork_payload_bytes: 0,
        }
    }
}

/// How long an owner holds its local take for one thief's sweep before it
/// gives up on that sweep: a thief stalled behind something the owner's
/// task holds must not stall the owner too.
const PACE_LIMIT: Duration = Duration::from_millis(50);

/// [`Sweeps::since`] of a thread that is not in a steal sweep.
const RESTING: u64 = u64::MAX;

/// The thieves' steal sweeps, which every owner's local take is paced
/// against (DESIGN.md §2i). One slot per thread of the scope, shared by
/// the simulated nodes' host threads: it orders host time and is no
/// protocol state.
struct Sweeps {
    /// The virtual time the thread's current steal sweep began:
    /// [`RESTING`] outside one, 0 until the thread first sweeps.
    since: Vec<AtomicU64>,
    /// Sweeps the thread has ended.
    ended: Vec<AtomicU64>,
}

impl Sweeps {
    fn new(threads: usize) -> Self {
        Sweeps {
            since: (0..threads).map(|_| AtomicU64::new(0)).collect(),
            ended: (0..threads).map(|_| AtomicU64::new(0)).collect(),
        }
    }

    /// Thread `t` found its home deque empty at virtual time `vt` and
    /// asks the victims.
    fn begin(&self, t: usize, vt: u64) {
        self.since[t].store(vt, Ordering::SeqCst);
    }

    /// Thread `t` is not sweeping: it took a task, found none anywhere,
    /// or is about to take from its home deque.
    fn rest(&self, t: usize) {
        if self.since[t].swap(RESTING, Ordering::SeqCst) != RESTING {
            self.ended[t].fetch_add(1, Ordering::SeqCst);
        }
    }
}

/// Shared handles of one task scope (plain copyable descriptors).
#[derive(Clone, Copy)]
struct TaskRt {
    /// The scope's number in its job: keys every node's deque and node
    /// 0's termination state.
    scope: u32,
    cap: usize,
    /// Number of nodes (deques), not threads.
    n: usize,
    /// Application threads per node.
    tpn: usize,
    /// The network's one-way latency: a steal request sent at virtual
    /// time `t` reaches its victim no earlier than `t + latency_ns`.
    latency_ns: u64,
}

/// The scope's task executor, shipped once at fork time.
type TaskBody = Arc<dyn Fn(&mut TaskScope<'_, '_>, TaskArgs) + Send + Sync>;

/// Per-thread context inside a task scope. Dereferences to [`OmpThread`],
/// so shared-memory access and `critical` sections are available in task
/// bodies exactly as in any parallel region.
pub struct TaskScope<'a, 't> {
    th: &'a mut OmpThread<'t>,
    rt: TaskRt,
    body: TaskBody,
    /// Global thread id.
    me: usize,
    /// This thread's workstation (its home deque under work stealing).
    node: usize,
    /// Number of *deque-borne* task frames on this thread's stack (inline
    /// overflow frames are excluded: they never touch the counters).
    /// [`TaskScope::taskwait`] subtracts this from the global deficit —
    /// the caller's own chain cannot complete while it waits.
    depth: u64,
    /// How much of `depth` this thread has already published to its home
    /// deque's `waiting` counter — the sum of the deltas of its
    /// enclosing, currently suspended `taskwait`s. A nested wait
    /// publishes only the frames the outer waits have not, or the chain
    /// would be double-counted and the quiescence condition unreachable.
    published: u64,
    /// Sweeps performed so far: rotates the victim-order tie-break so a
    /// thief does not start every sweep at the same offset (and different
    /// thieves start at different offsets), breaking steal convoys.
    sweeps: u64,
    /// Each victim's backlog as its last steal reply reported it (`None`:
    /// not asked yet in this scope).
    hints: Vec<Option<u64>>,
    /// Every thread's steal sweeps, shared by the scope's threads.
    sweeping: Arc<Sweeps>,
    /// Per thread: the sweep (its [`Sweeps::ended`] count) this thread's
    /// local take gave up waiting for, so it never waits on it again.
    gave_up: Vec<Option<u64>>,
    /// Set when this worker was just woken out of its park: a single
    /// push only ever wakes one sleeper (it clears the hungry flag for
    /// the burst that follows), so the woken worker re-propagates —
    /// after taking a task that left more behind, it wakes the next
    /// sleeper, cascading until the burst is matched with workers.
    woke: bool,
}

/// Victim visit order for one sweep (the home deque is always tried
/// first, before this order is even computed): every other deque sorted
/// by descending score (estimated backlog over effective speed — raid
/// the deque that will take longest to drain), with ties broken by a
/// round-robin rotation of `rotor` so concurrent thieves (and
/// consecutive sweeps of one thief) start at different victims instead
/// of convoying on the first non-empty deque.
fn victim_order(n: usize, home: usize, rotor: u64, score: impl Fn(usize) -> f64) -> Vec<usize> {
    if n <= 1 {
        return Vec::new();
    }
    let v = n - 1;
    let mut victims: Vec<usize> = (0..v)
        .map(|i| {
            let off = 1 + (i + (rotor % v as u64) as usize) % v;
            (home + off) % n
        })
        .collect();
    // Stable: equal scores keep the rotated round-robin order.
    victims.sort_by(|&a, &b| {
        score(b)
            .partial_cmp(&score(a))
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    victims
}

impl<'t> std::ops::Deref for TaskScope<'_, 't> {
    type Target = OmpThread<'t>;
    fn deref(&self) -> &Self::Target {
        self.th
    }
}

impl std::ops::DerefMut for TaskScope<'_, '_> {
    fn deref_mut(&mut self) -> &mut Self::Target {
        self.th
    }
}

impl TaskScope<'_, '_> {
    /// `!$omp task`: spawn the scope's task body with `args`. The task is
    /// pushed onto this node's deque and may be executed by any
    /// workstation.
    /// If the deque is full the task runs inline instead (undeferred).
    pub fn task(&mut self, args: TaskArgs) {
        let (scope, cap) = (self.rt.scope, self.rt.cap);
        let Some(was_hungry) = self.th.task_push(scope, args.words(), cap) else {
            // Deque full: run undeferred. Spawn/complete counters are
            // skipped on purpose — the task is finished before this spawn
            // returns, so quiescence accounting never sees it (`counted:
            // false` keeps it out of the depth bookkeeping too).
            self.th.count_op(tmk::TmkOp::TasksSpawned, 1);
            self.th.count_op(tmk::TmkOp::TaskOverflows, 1);
            // b = 1 marks a deque-overflow spawn (ran undeferred).
            self.th.trace_instant(tmk::EventKind::TaskSpawn, 0, 1);
            self.run_task(args, false, false);
            return;
        };
        self.th.count_op(tmk::TmkOp::TasksSpawned, 1);
        self.th.trace_instant(tmk::EventKind::TaskSpawn, 0, 0);
        // Recruit help: bump the local wake generation unconditionally (a
        // sibling mid-sweep must observe the push or it would park over
        // available work) — a shared-memory wake, message-free. Then, if
        // a scheduler sweep marked this deque hungry, ask node 0 to wake
        // a parked node.
        if let Some((team, _)) = self.th.smp_team() {
            team.task_wake();
        }
        if was_hungry {
            self.th.term_wake(self.rt.scope);
        }
    }

    /// `!$omp taskwait` (taskgroup-wide): help execute tasks until every
    /// task spawned in the scope so far — transitively — has completed.
    /// Quiescence is detected with a double sweep: two consecutive clean
    /// sweeps observe identical spawned/completed/waiting totals with
    /// `spawned − completed == waiting`, i.e. every unfinished task is a
    /// frame of a chain suspended in a taskwait, this one included. That
    /// is what lets nested and concurrent waits return. A victim's
    /// counters come in its steal reply, with the notices of every
    /// completion they count, so the waiter has acquired the writes of
    /// the tasks it waited for.
    ///
    /// The waiter *helps* (it keeps executing available tasks) and polls
    /// the counters between helps, with unmarked sweeps; unlike an idle
    /// worker it does not park, so a taskwait spanning a long remote task
    /// pays recurring sweep traffic. Parking waiters on completion
    /// events would need a completion→wake edge the protocol does not
    /// have yet; left as future work.
    pub fn taskwait(&mut self) {
        // Publish this chain's suspended depth on the home deque: with
        // several threads suspended in taskwait at once, the global
        // deficit bottoms out at the *sum* of the suspended chains (no
        // single waiter's own depth), so each waiter must know about the
        // others to recognize quiescence.
        let delta = self.depth - self.published;
        self.adjust_waiting(delta as i64);
        self.published += delta;
        loop {
            while self.help(false).is_none() {}
            let Some(first) = self.help(false) else {
                continue;
            };
            let Some(second) = self.help(false) else {
                continue;
            };
            // Monotone counters equal across both sweeps pin S and C over
            // the whole interval (and W unchanged pins the waiter set), so
            // the deficit is exact; a deficit of exactly the summed
            // suspended depths means the only unfinished tasks are chains
            // parked in taskwait — including this one — which by
            // definition have nothing left to wait for.
            if first == second && first.spawned - first.completed == first.waiting {
                break;
            }
            // Tasks are in flight on other nodes; yield the host CPU while
            // they finish (the waiter keeps helping, so this is bounded).
            self.th.spin_hint();
        }
        self.published -= delta;
        self.adjust_waiting(-(delta as i64));
    }

    /// Add `delta` to the home deque's suspended-waiter depth sum.
    fn adjust_waiting(&mut self, delta: i64) {
        if delta == 0 {
            return;
        }
        self.th.task_wait(self.rt.scope, delta);
    }

    /// `!$omp single` (master-executes variant) — valid in the init phase
    /// of a scope only (it synchronizes with a barrier, which must not run
    /// while the scheduler loop may hold tasks on other threads).
    pub fn single(&mut self, f: impl FnOnce(&mut Self)) {
        if self.me == 0 {
            f(self);
        }
        self.th.barrier();
    }

    /// Execute a task just taken (`stolen` from another node) and count
    /// its completion against this thread's home deque.
    fn execute_taken(&mut self, stolen: bool, args: TaskArgs) {
        self.run_task(args, stolen, true);
        self.th.task_complete(self.rt.scope);
    }

    /// The home take: this node's deque, at the owner's end. It never
    /// marks the deque hungry: a node's own push is never owed to it.
    fn take_home(&mut self) -> Taken {
        self.pace();
        self.th.task_take(self.rt.scope)
    }

    /// Hold a local take while a thief on another node is in a sweep that
    /// began early enough, in virtual time, for its request to reach this
    /// node first: wait, off the meter, until that sweep ends. A local
    /// take costs the owner no message and almost no host time, while a
    /// steal costs a thief host round trips that model far less virtual
    /// time than the owner's tasks take, so without this the owner would
    /// drain its deque ahead of requests that reach it first in virtual
    /// time. Only a deque that holds tasks is held back, and never
    /// longer than [`PACE_LIMIT`] for one sweep.
    fn pace(&mut self) {
        let sweeps = &self.sweeping;
        let waits: Vec<(usize, u64, u64)> = (0..sweeps.since.len())
            .filter(|&t| t / self.rt.tpn != self.node)
            .filter_map(|t| {
                let ended = sweeps.ended[t].load(Ordering::SeqCst);
                let since = sweeps.since[t].load(Ordering::SeqCst);
                (since != RESTING && self.gave_up[t] != Some(ended)).then_some((t, since, ended))
            })
            .collect();
        if waits.is_empty() || self.th.task_backlog(self.rt.scope) == 0 {
            return;
        }
        let latency = self.rt.latency_ns;
        let gave_up = &mut self.gave_up;
        self.th.off_meter(|vt| {
            let deadline = Instant::now() + PACE_LIMIT;
            for (t, since, ended) in waits {
                if since.saturating_add(latency) > vt {
                    continue;
                }
                while sweeps.ended[t].load(Ordering::SeqCst) == ended {
                    if Instant::now() >= deadline {
                        gave_up[t] = Some(ended);
                        break;
                    }
                    std::thread::yield_now();
                }
            }
        });
    }

    /// One steal chain over `victims`, asked in order until one has a
    /// task: every victim asked counts as an attempt, each one passed
    /// over had nothing left, and the reply's backlog becomes the
    /// answering victim's hint.
    fn steal(&mut self, victims: &[usize], mark: bool) -> Taken {
        let (answered, taken) = self.th.steal(victims, self.rt.scope, mark);
        let asked = 1 + victims
            .iter()
            .position(|&k| k == answered)
            .expect("a victim answers");
        self.th.count_op(tmk::TmkOp::StealAttempts, asked as u64);
        for &k in &victims[..asked - 1] {
            self.hints[k] = Some(0);
        }
        self.hints[answered] = Some(taken.backlog);
        taken
    }

    /// One sweep over the deques — home first (message-free when local
    /// work exists; victim scoring is skipped entirely), then the
    /// backlog-ordered victims — stopping at the first task found:
    /// whether it was stolen, and the task. With `mark` (the scheduler's
    /// sweeps), every remote deque found empty is flagged hungry and the
    /// victims are asked by one chain. Without it (`taskwait`'s), each
    /// victim gets a request of its own, whose reply carries its
    /// counters and completion notices: a sweep that finds nothing
    /// returns the counters summed over every deque. A freshly woken
    /// worker whose take left more behind propagates the wake-up to the
    /// next sleeper (see `woke`).
    fn sweep(&mut self, mark: bool) -> Result<(bool, TaskArgs), TaskCounts> {
        let mut totals = TaskCounts::default();
        self.sweeping.rest(self.me);
        let mut take = (false, self.take_home());
        let mut victims = Vec::new();
        if take.1.task.is_none() {
            victims = self.victim_sweep();
            if !victims.is_empty() {
                self.sweeping.begin(self.me, self.th.trace_now());
            }
        }
        let chain = if mark { victims.len().max(1) } else { 1 };
        let mut chains = victims.chunks(chain);
        loop {
            let (stolen, taken) = take;
            totals += taken.counts;
            if let Some(task) = taken.task {
                self.sweeping.rest(self.me);
                self.propagate_wake(taken.backlog);
                return Ok((stolen, TaskArgs::from_words(task)));
            }
            let Some(hops) = chains.next() else {
                self.sweeping.rest(self.me);
                return Err(totals);
            };
            take = (true, self.steal(hops, mark));
        }
    }

    /// Pop (own deque) or steal one task and execute it: `None` if work
    /// was found, else the counters summed over every deque (what
    /// `taskwait` tests for quiescence). `mark` as for [`Self::sweep`].
    fn help(&mut self, mark: bool) -> Option<TaskCounts> {
        match self.sweep(mark) {
            Ok((stolen, args)) => {
                self.execute_taken(stolen, args);
                None
            }
            Err(totals) => Some(totals),
        }
    }

    /// If this worker was just woken and its take left more tasks
    /// behind, pass the wake on to the next sleeper (a push only ever
    /// wakes one worker, so bursts are matched with workers by this
    /// cascade). Parked local siblings are recruited first (shared-memory
    /// wake), then the next parked node over the wire.
    fn propagate_wake(&mut self, remaining: u64) {
        if self.woke {
            self.woke = false;
            if remaining > 0 {
                if let Some((team, _)) = self.th.smp_team() {
                    team.task_wake();
                }
                self.th.term_wake(self.rt.scope);
            }
        }
    }

    /// Execute one task body. `counted` marks deque-borne tasks (tracked
    /// by the spawn/complete counters and the depth bookkeeping).
    fn run_task(&mut self, args: TaskArgs, stolen: bool, counted: bool) {
        self.th.count_op(tmk::TmkOp::TasksExecuted, 1);
        if stolen {
            self.th.count_op(tmk::TmkOp::TasksStolen, 1);
        }
        if stolen {
            self.th.trace_instant(tmk::EventKind::TaskSteal, 0, 0);
        }
        if counted {
            self.depth += 1;
        }
        // Both ends are charged reads (`off_meter`), so the span holds the
        // body's compute rather than leaving it to a later span.
        let t0 = self.th.trace_on().then(|| self.th.off_meter(|vt| vt));
        let body = self.body.clone();
        body(self, args);
        if let Some(t0) = t0 {
            let t1 = self.th.off_meter(|vt| vt);
            // A Marker-category span: task bodies are application compute
            // in the profile, but the track shows task boundaries.
            let (kind, stolen) = (tmk::EventKind::TaskExec, stolen as u64);
            self.th.trace_span(kind, t0, t1, self.depth, stolen);
        }
        if counted {
            self.depth -= 1;
        }
    }

    /// The victims of one sweep, ordered by descending backlog hint over
    /// effective speed, a victim not asked yet first and rotation
    /// breaking ties. Computed only after the home take came up empty,
    /// so the message-free local-work fast path never pays for victim
    /// scoring. Reads no page and sends nothing: the hints are what the
    /// steal replies reported. Each call advances the rotation.
    fn victim_sweep(&mut self) -> Vec<usize> {
        let n = self.rt.n;
        if n <= 1 {
            return Vec::new();
        }
        self.sweeps = self.sweeps.wrapping_add(1);
        let rotor = self.sweeps.wrapping_add(self.me as u64);
        let mut est = vec![f64::INFINITY; n];
        for (k, e) in est.iter_mut().enumerate() {
            if let Some(backlog) = self.hints[k].filter(|_| k != self.node) {
                *e = backlog as f64 / self.th.node_speed(k).max(1e-6);
            }
        }
        victim_order(n, self.node, rotor, |k| est[k])
    }

    /// The scheduler loop every thread runs after the init phase: execute
    /// until the scope is globally quiescent, parking instead of
    /// busy-waiting while no work is available.
    ///
    /// Every work-stealing sweep of the drain marks the deques it finds
    /// empty, so the sweep that finds nothing anywhere has marked them
    /// all and the worker parks at once: no idle announcement and no
    /// second sweep come before a park. A push that lands on a marked
    /// deque after its sweep wakes a parked node.
    ///
    /// **Two-level termination** on SMP topologies: a thread that finds
    /// nothing goes *locally* idle first. All but the last of a node's
    /// threads park on the team's host condvar (woken by a local push —
    /// shared-memory, message-free). The last thread to idle becomes the
    /// node's **agent** and parks at node 0 ([`tmk::Tmk::term_idle`]),
    /// which counts parked *nodes* — so the distributed termination
    /// detection is paid once per node, not once per thread. While an
    /// agent is parked its siblings are all locally parked, so no local
    /// thread can need the node's (held) operation gate — the hierarchy
    /// is deadlock-free by construction.
    fn scheduler(&mut self) {
        let team = self.th.smp_team().map(|(team, _)| team);
        loop {
            // Sample the local wake generation *before* sweeping: a local
            // push landing after an empty observation bumps it and turns
            // the idle attempt below into a retry.
            let gen0 = team.map(|tm| tm.task_gen());
            // Drain everything reachable. Sweeps mark the deques they
            // find empty, so the one that finds nothing has marked them
            // all.
            while self.help(true).is_none() {}
            if let (Some(tm), Some(gen0)) = (team, gen0) {
                match tm.task_enter_idle(gen0) {
                    smp::IdleOutcome::Done => return,
                    smp::IdleOutcome::Retry => continue,
                    smp::IdleOutcome::Agent => {}
                }
            }
            // --- Cluster level (the node's agent; every thread on n×1) ---
            if self.th.term_idle(self.rt.scope) {
                if let Some(tm) = team {
                    // Release the locally parked siblings for good.
                    tm.task_done();
                }
                return;
            }
            if let Some(tm) = team {
                tm.task_leave_idle();
            }
            self.woke = true;
        }
    }
}

impl Env<'_> {
    /// Run a task region (the tasking analogue of [`Env::parallel`]).
    ///
    /// Forks a parallel region on every workstation. Each thread first
    /// runs `init` — seed root tasks there, typically from one thread via
    /// [`TaskScope::single`] or a `thread_num() == 0` check — and then
    /// enters the scheduler loop, executing `body` for every task until
    /// the scope is globally quiescent. The region's implicit barrier
    /// joins the scope.
    ///
    /// `body` is shipped once at fork time (like any region body); the
    /// per-task [`TaskArgs`] travel in steal replies, so task movement is
    /// fully accounted as wire traffic.
    pub fn task_scope<I, F>(&mut self, cfg: TaskScopeConfig, init: I, body: F)
    where
        I: Fn(&mut TaskScope<'_, '_>) + Send + Sync + 'static,
        F: Fn(&mut TaskScope<'_, '_>, TaskArgs) + Send + Sync + 'static,
    {
        self.task_scope_then(cfg, init, body, |_| {});
    }

    /// [`Env::task_scope`] with a per-thread epilogue: each thread runs
    /// `then` once the scope is globally quiescent, after the last task
    /// anywhere and before the join — where a thread contributes what
    /// its tasks accumulated to a reduction riding the join
    /// ([`OmpThread::reduce_combine`], `Tmk::contribute`).
    pub fn task_scope_then<I, F, T>(&mut self, cfg: TaskScopeConfig, init: I, body: F, then: T)
    where
        I: Fn(&mut TaskScope<'_, '_>) + Send + Sync + 'static,
        F: Fn(&mut TaskScope<'_, '_>, TaskArgs) + Send + Sync + 'static,
        T: Fn(&mut TaskScope<'_, '_>) + Send + Sync + 'static,
    {
        // One deque per *node*: an SMP node's local threads share it
        // (message-free local scheduling); only cross-node steals pay
        // protocol traffic.
        let rt = TaskRt {
            scope: self.open_task_scope(),
            cap: cfg.deque_capacity.max(1),
            n: self.num_nodes(),
            tpn: self.threads_per_node(),
            latency_ns: self.cfg.tmk.net.latency_ns,
        };
        let threads = self.num_threads();
        let sweeping = Arc::new(Sweeps::new(threads));
        let body: TaskBody = Arc::new(body);
        let init = Arc::new(init);
        self.parallel_sized(cfg.fork_payload_bytes, move |th| {
            let me = th.thread_num();
            let node = th.node_id();
            let mut scope = TaskScope {
                th,
                rt,
                body: body.clone(),
                me,
                node,
                depth: 0,
                published: 0,
                sweeps: 0,
                hints: vec![None; rt.n],
                sweeping: sweeping.clone(),
                gave_up: vec![None; threads],
                woke: false,
            };
            init(&mut scope);
            scope.scheduler();
            then(&mut scope);
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::OmpConfig;
    use crate::env::run;
    use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
    use std::sync::Arc;
    use std::time::{Duration, Instant};

    /// Hold a host thread until another one got somewhere, so a test's
    /// race is decided by what it is about and not by host speed. Gives
    /// up after 5 s: a broken runtime then fails the test's assertions
    /// instead of hanging it.
    fn yield_until(done: impl Fn() -> bool) {
        let t0 = Instant::now();
        while !done() && t0.elapsed() < Duration::from_secs(5) {
            std::thread::yield_now();
        }
    }

    fn fib_scope(nodes: usize, n: u64) -> (u64, tmk::TmkStats) {
        // Naive task-recursive Fibonacci: every call spawns its two
        // children as tasks and accumulates leaves into a shared counter.
        let out = run(OmpConfig::fast_test(nodes), move |omp| {
            let acc = omp.malloc_scalar::<u64>(0);
            omp.task_scope(
                TaskScopeConfig::default(),
                move |s| {
                    s.single(|s| s.task(TaskArgs::ab(n, 0)));
                },
                move |s, t| {
                    if t.a < 2 {
                        s.critical_named("fib_acc", |th| {
                            let v = acc.get(th);
                            acc.set(th, v + t.a);
                        });
                    } else {
                        s.task(TaskArgs::ab(t.a - 1, 0));
                        s.task(TaskArgs::ab(t.a - 2, 0));
                    }
                },
            );
            acc.get(omp)
        });
        (out.result, out.dsm)
    }

    fn fib(n: u64) -> u64 {
        if n < 2 {
            n
        } else {
            fib(n - 1) + fib(n - 2)
        }
    }

    #[test]
    fn fib_work_stealing_all_node_counts() {
        for nodes in [1usize, 2, 3, 4] {
            let (got, stats) = fib_scope(nodes, 10);
            assert_eq!(got, fib(10), "{nodes} nodes");
            assert!(stats.tasks_executed >= stats.tasks_spawned);
            assert!(stats.tasks_spawned > 100, "fib(10) spawns many tasks");
        }
    }

    #[test]
    fn stealing_actually_happens() {
        // One root task spawning a chain of children: with stealing, other
        // nodes pick tasks off node 0's deque.
        let out = run(OmpConfig::fast_test(4), |omp| {
            let hits = omp.malloc_vec::<u64>(4);
            omp.task_scope(
                TaskScopeConfig::default(),
                move |s| {
                    if s.thread_num() == 0 {
                        for i in 0..64 {
                            s.task(TaskArgs::ab(i, 0));
                        }
                    }
                },
                move |s, _t| {
                    let me = s.thread_num();
                    let v = s.read(&hits, me);
                    s.write(&hits, me, v + 1);
                    // Burn a little so thieves have time to engage.
                    std::hint::black_box((0..500u64).sum::<u64>());
                },
            );
            omp.read_slice(&hits, 0..4)
        });
        assert_eq!(
            out.result.iter().sum::<u64>(),
            64,
            "every task ran exactly once"
        );
        assert!(
            out.dsm.tasks_stolen > 0,
            "no steals recorded: {:?}",
            out.dsm
        );
    }

    #[test]
    fn termination_parks_starved_workers_not_spinning() {
        // A serial chain: at most one task is runnable at any moment, so
        // on 4 nodes three workers are starved for the whole run — they
        // must park at node 0 (never busy-wait) and be woken when a push
        // finds their hungry flag.
        let out = run(OmpConfig::fast_test(4), |omp| {
            let count = omp.malloc_scalar::<u64>(0);
            omp.task_scope(
                TaskScopeConfig::default(),
                move |s| {
                    s.single(|s| s.task(TaskArgs::ab(300, 0)));
                },
                move |s, t| {
                    std::hint::black_box((0..2_000u64).sum::<u64>());
                    s.critical_named("chain", |th| {
                        let v = count.get(th);
                        count.set(th, v + 1);
                    });
                    if t.a > 0 {
                        s.task(TaskArgs::ab(t.a - 1, 0));
                    }
                },
            );
            count.get(omp)
        });
        assert_eq!(out.result, 301, "every chain link ran exactly once");
        assert!(out.dsm.parks > 0, "starved workers must park");
    }

    #[test]
    fn overflow_runs_tasks_inline() {
        // The thief starts only once the spawner is through: a thief that
        // keeps pace with the pushes would keep the two-slot deque from
        // ever filling.
        let spawned = Arc::new(AtomicBool::new(false));
        let out = run(OmpConfig::fast_test(2), move |omp| {
            let acc = omp.malloc_scalar::<u64>(0);
            let cfg = TaskScopeConfig {
                deque_capacity: 2,
                ..Default::default()
            };
            let spawned = spawned.clone();
            omp.task_scope(
                cfg,
                move |s| {
                    if s.thread_num() == 0 {
                        for _ in 0..16 {
                            s.task(TaskArgs::ab(1, 0));
                        }
                        spawned.store(true, Ordering::SeqCst);
                    } else {
                        yield_until(|| spawned.load(Ordering::SeqCst));
                    }
                },
                move |s, t| {
                    s.critical_named("ovf", |th| {
                        let v = acc.get(th);
                        acc.set(th, v + t.a);
                    });
                },
            );
            acc.get(omp)
        });
        assert_eq!(out.result, 16);
        assert!(out.dsm.task_overflows > 0, "tiny deque must overflow");
    }

    #[test]
    fn taskwait_drains_spawned_tasks() {
        let out = run(OmpConfig::fast_test(3), |omp| {
            let data = omp.malloc_vec::<u64>(32);
            let sum = omp.malloc_scalar::<u64>(0);
            omp.task_scope(
                TaskScopeConfig::default(),
                move |s| {
                    s.single(|s| s.task(TaskArgs::ab(u64::MAX, 0)));
                },
                move |s, t| {
                    if t.a == u64::MAX {
                        // Root: fan out writers, wait, then reduce — the
                        // taskwait guarantees every write is done.
                        for i in 0..32 {
                            s.task(TaskArgs::ab(i, 0));
                        }
                        s.taskwait();
                        let mut total = 0;
                        for i in 0..32 {
                            total += s.read(&data, i);
                        }
                        sum.set(s, total);
                    } else {
                        s.write(&data, t.a as usize, t.a + 1);
                    }
                },
            );
            sum.get(omp)
        });
        // sum of (i+1) for i in 0..32
        assert_eq!(out.result, (1..=32).sum::<u64>());
    }

    #[test]
    fn concurrent_taskwaits_on_different_nodes_both_return() {
        // Two sibling tasks fan out children and taskwait concurrently
        // (canonical divide-and-conquer). Each waiter must account for
        // the *other* suspended chain's depth, or neither ever observes
        // its own deficit and both spin forever.
        let out = run(OmpConfig::fast_test(4), |omp| {
            let data = omp.malloc_vec::<u64>(2 * 16);
            let sums = omp.malloc_vec::<u64>(2);
            omp.task_scope(
                TaskScopeConfig::default(),
                move |s| {
                    s.single(|s| {
                        s.task(TaskArgs::ab(u64::MAX, 0));
                        s.task(TaskArgs::ab(u64::MAX, 1));
                    });
                },
                move |s, t| {
                    if t.a == u64::MAX {
                        let half = t.b;
                        for i in 0..16 {
                            s.task(TaskArgs::ab(half * 16 + i, half));
                        }
                        s.taskwait();
                        let mut total = 0;
                        for i in 0..16 {
                            total += s.read(&data, (half * 16 + i) as usize);
                        }
                        s.write(&sums, half as usize, total);
                    } else {
                        s.write(&data, t.a as usize, t.a + 1);
                    }
                },
            );
            omp.read_slice(&sums, 0..2)
        });
        // sum of (i+1) for i in 0..16 and 16..32
        assert_eq!(out.result[0], (1..=16).sum::<u64>());
        assert_eq!(out.result[1], (17..=32).sum::<u64>());
    }

    #[test]
    fn nested_taskwait_single_node_terminates() {
        // Task X spawns Y and taskwaits; while helping, X executes Y,
        // which spawns a leaf and taskwaits *nested* on the same thread.
        // The inner wait must publish only the frames the outer wait has
        // not, or the waiting sum overshoots the true deficit and both
        // waits spin forever (the 1-node case makes the schedule
        // deterministic: one thread runs the whole chain).
        let out = run(OmpConfig::fast_test(1), |omp| {
            let log = omp.malloc_vec::<u64>(3);
            omp.task_scope(
                TaskScopeConfig::default(),
                move |s| {
                    s.single(|s| s.task(TaskArgs::ab(0, 0)));
                },
                move |s, t| match t.a {
                    0 => {
                        s.task(TaskArgs::ab(1, 0));
                        s.taskwait();
                        let child = s.read(&log, 1);
                        s.write(&log, 0, 1 + child);
                    }
                    1 => {
                        s.task(TaskArgs::ab(2, 0));
                        s.taskwait();
                        let child = s.read(&log, 2);
                        s.write(&log, 1, 1 + child);
                    }
                    _ => s.write(&log, 2, 1),
                },
            );
            omp.read_slice(&log, 0..3)
        });
        assert_eq!(
            out.result,
            vec![3, 2, 1],
            "each level saw its child's write"
        );
    }

    #[test]
    fn victim_order_rotates_per_sweep_and_per_thief() {
        let flat = |_k: usize| 0.0;
        // Victims cover everyone except home exactly once.
        for n in [2usize, 3, 5, 8] {
            for home in 0..n {
                for rotor in 0..(3 * n as u64) {
                    let o = victim_order(n, home, rotor, flat);
                    assert!(!o.contains(&home), "home is tried before the victims");
                    let mut seen: Vec<usize> = o.clone();
                    seen.sort_unstable();
                    let expect: Vec<usize> = (0..n).filter(|&k| k != home).collect();
                    assert_eq!(seen, expect, "n={n} home={home}");
                }
            }
        }
        // With flat scores, consecutive sweeps start at different victims
        // (the convoy fix), cycling through all of them...
        let firsts: Vec<usize> = (0..3u64).map(|r| victim_order(4, 0, r, flat)[0]).collect();
        assert_eq!(firsts.len(), 3);
        assert!(firsts.windows(2).all(|w| w[0] != w[1]), "{firsts:?}");
        let distinct: std::collections::HashSet<usize> = firsts.iter().copied().collect();
        assert_eq!(distinct.len(), 3, "rotation must cycle all victims");
        // ...and different thieves (rotor seeded by thread id) start at
        // different victims on the same sweep number.
        assert_ne!(
            victim_order(4, 0, 1, flat)[0],
            victim_order(4, 0, 2, flat)[0]
        );
        // A single deque has no victims at all.
        assert!(victim_order(1, 0, 0, flat).is_empty());
    }

    #[test]
    fn victim_order_prefers_bigger_backlog() {
        // Scores dominate the rotation: the fullest deque is raided
        // first, regardless of the rotor.
        let scores = [0.0, 1.0, 9.0, 4.0];
        for rotor in 0..8u64 {
            let o = victim_order(4, 0, rotor, |k| scores[k]);
            assert_eq!(o, vec![2, 3, 1], "rotor {rotor}");
        }
    }

    #[test]
    fn steals_spread_across_victims() {
        // Each victim node seeds a batch of light tasks and then a
        // "blocker"; the victim's owner pops LIFO, so it sits on the
        // blocker while its light tasks stay stealable. Node 0 seeds
        // nothing and lives off steals: with backlog-ordered sweeps
        // (plus rotation on ties) they must come from more than one
        // victim — the convoy bug pinned every steal to one deque.
        //
        // The race is decided by what the test is about, not by host
        // speed: a barrier after seeding gives node 0 a current view of
        // every backlog before its first sweep (without it a victim that
        // seeds late stays "empty" in node 0's cached header until the
        // others drain), and a blocker holds its owner until node 0 has
        // run a few tasks.
        const NODE0_TASKS: u64 = 6;
        let node0_ran = Arc::new(AtomicU64::new(0));
        let out = run(OmpConfig::fast_test(4), move |omp| {
            // origins[o] counts tasks of origin o executed by node 0.
            let origins = omp.malloc_vec::<u64>(4);
            let node0_ran = node0_ran.clone();
            omp.task_scope(
                TaskScopeConfig::default(),
                move |s| {
                    let me = s.thread_num();
                    if me > 0 {
                        for _ in 0..12 {
                            s.task(TaskArgs::ab(me as u64, 0));
                        }
                        s.task(TaskArgs::ab(me as u64, 1)); // the blocker
                    }
                    s.th.barrier();
                },
                move |s, t| {
                    if t.b == 1 {
                        yield_until(|| node0_ran.load(Ordering::SeqCst) >= NODE0_TASKS);
                    } else {
                        std::hint::black_box((0..20_000u64).sum::<u64>());
                    }
                    if s.thread_num() == 0 {
                        let o = t.a as usize;
                        let v = s.read(&origins, o);
                        s.write(&origins, o, v + 1);
                        node0_ran.fetch_add(1, Ordering::SeqCst);
                    }
                },
            );
            omp.read_slice(&origins, 0..4)
        });
        let by_node0: u64 = out.result.iter().sum();
        assert!(by_node0 > 0, "node 0 must steal at least once");
        let distinct = out.result[1..].iter().filter(|&&c| c > 0).count();
        assert!(
            distinct >= 2,
            "steals must spread across victims, got {:?}",
            out.result
        );
    }
}

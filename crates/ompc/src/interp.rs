//! The run-time half of execution: what the closures built by
//! [`crate::codegen`] run *in* and call *into*.
//!
//! Sequential code runs in the master's context ([`nomp::Env`]); a
//! `parallel` statement forks its region's compiled body onto every
//! simulated workstation exactly like a hand-written `nomp` program,
//! shipping a copy of the enclosing private frame as the firstprivate
//! environment (modeled in the fork payload). Shared globals are
//! `SharedScalar`/`SharedVec` handles, so every access a translated
//! program makes pays real protocol traffic and virtual time on the
//! simulated network.
//!
//! Regions from which a `task`/`taskwait` is reachable (lexically or
//! through called functions — resolved by sema) run as distributed task
//! scopes ([`nomp::Env::task_scope_then`]): the region body becomes the
//! scope's init phase, each `task` construct ships its ≤3 captured
//! privates through the 32-byte task descriptor, and the epilogue
//! contributes what the thread's tasks accumulated. Other regions fork
//! as plain parallel regions and pay no tasking overhead.
//!
//! Compile-time errors are [`crate::Diag`]s; *runtime* errors (index out
//! of bounds, invalid array length, modulo by zero, runaway recursion)
//! panic with a spanned `ompc runtime error` message, the translated
//! analogue of a segfault.

use crate::ast::SchedKind;
use crate::codegen::Code;
use crate::diag::Span;
use crate::dynrace::{DataRace, Monitor};
use crate::ir::*;
use nomp::{
    Env, LoopShared, OmpThread, RedOp, Reduce, Schedule, SharedScalar, SharedVec, TaskArgs,
    TaskScope, TaskScopeConfig, Tmk,
};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::Arc;

/// A shared global's DSM handle.
#[derive(Clone, Copy)]
pub(crate) enum GSlot {
    Scalar(SharedScalar<f64>),
    Array(SharedVec<f64>),
}

/// Resolved work-shared loop site: schedule plus the master-allocated
/// shared loop state (chunk counter, adaptive rate table, or affinity
/// partitions — non-static policies only).
pub(crate) type LoopRt = (Schedule, Option<LoopShared>);

/// The execution context a statement runs in.
pub(crate) enum Exec<'a, 'b, 't> {
    /// Master sequential sections (can fork regions).
    Master(&'a mut Env<'t>),
    /// One thread of a plain parallel region.
    Thread(&'a mut OmpThread<'t>),
    /// One thread of a task-scope region (can spawn tasks).
    Tasks(&'a mut TaskScope<'b, 't>),
}

impl<'a, 'b, 't> Exec<'a, 'b, 't> {
    pub(crate) fn tmk(&mut self) -> &mut Tmk {
        match self {
            Exec::Master(e) => e,
            Exec::Thread(t) => t,
            Exec::Tasks(s) => s,
        }
    }

    fn env(&mut self) -> &mut Env<'t> {
        match self {
            Exec::Master(e) => e,
            _ => unreachable!("region fork outside sequential context (sema bug)"),
        }
    }

    pub(crate) fn th(&mut self) -> &mut OmpThread<'t> {
        match self {
            Exec::Thread(t) => t,
            Exec::Tasks(s) => s,
            Exec::Master(_) => unreachable!("worksharing outside a parallel region (sema bug)"),
        }
    }

    pub(crate) fn is_master_seq(&self) -> bool {
        matches!(self, Exec::Master(_))
    }

    /// The executing thread's global id (0 in sequential context).
    pub(crate) fn thread_id(&mut self) -> usize {
        match self {
            Exec::Master(_) => 0,
            Exec::Thread(t) => t.thread_num(),
            Exec::Tasks(s) => s.thread_num(),
        }
    }

    /// Total processors of the simulated machine:
    /// `nodes × threads_per_node`.
    pub(crate) fn total_procs(&mut self) -> usize {
        match self {
            Exec::Master(e) => e.num_threads(),
            Exec::Thread(t) => t.num_threads(),
            Exec::Tasks(s) => s.num_threads(),
        }
    }

    pub(crate) fn spawn(&mut self, args: TaskArgs) {
        match self {
            Exec::Tasks(s) => s.task(args),
            _ => unreachable!("task spawn outside a task scope (sema bug)"),
        }
    }

    pub(crate) fn taskwait(&mut self) {
        match self {
            Exec::Tasks(s) => s.taskwait(),
            _ => unreachable!("taskwait outside a task scope (sema bug)"),
        }
    }
}

/// Bound on translated-program call nesting: runaway recursion must be
/// a clean spanned runtime error, not a host stack overflow (the parser
/// bounds expression nesting the same way).
pub(crate) const MAX_CALL_DEPTH: u32 = 256;

/// One execution context's state: the master's sequential run, one
/// region thread, or one task. Built per run and dropped with it (also
/// by a runtime-error unwind), so nothing here outlives a job.
pub(crate) struct Icx<'x> {
    pub code: &'x Arc<Code>,
    pub globals: &'x [GSlot],
    /// Resolved loop sites of the enclosing region (empty elsewhere).
    pub loops: &'x [LoopRt],
    /// Print sink: captured on the master, flushed with a `[t<id>]`
    /// prefix at the end of a region/task on workers.
    pub lines: &'x mut Vec<String>,
    /// The call stack of private frames: the context's own frame at the
    /// bottom, one frame pushed per call in progress above it. Compiled
    /// code addresses slot `s` of the running function as
    /// `stack[fp + s]`.
    pub stack: Vec<f64>,
    /// Current translated-program call depth (bounded by
    /// [`MAX_CALL_DEPTH`]).
    pub depth: u32,
    /// Dynamic happens-before race monitor (`Compiled::check_races`).
    pub mon: Option<Arc<Monitor>>,
    /// A plain region's barrier that has not run yet: the first
    /// region-level statement that needs it runs it ([`settle`]), and
    /// the join absorbs it if none does (DESIGN.md §2j).
    pub pending: bool,
}

/// A context's call stack: its own zeroed frame at the bottom, and room
/// above it so that its first calls do not go back to the allocator (a
/// task is a context of its own, and most task bodies are one call).
fn new_stack(frame: usize) -> Vec<f64> {
    let mut stack = Vec::with_capacity(frame + 64);
    stack.resize(frame, 0.0);
    stack
}

/// Record one shared access with the race monitor, if it is on.
pub(crate) fn note_access(
    cx: &Icx<'_>,
    ex: &mut Exec<'_, '_, '_>,
    gid: u16,
    idx: Option<usize>,
    write: bool,
    span: Span,
) {
    if let Some(m) = &cx.mon {
        let t = ex.thread_id();
        let vt = ex.tmk().now_ns();
        m.access(t, gid, idx, write, span, vt);
    }
}

/// A runtime barrier, bracketed by the monitor's two clock phases: every
/// participant contributes its clock before the real barrier and adopts
/// the merged clock after (the real barrier guarantees completeness).
pub(crate) fn mon_barrier(cx: &Icx<'_>, ex: &mut Exec<'_, '_, '_>) {
    if let Some(m) = &cx.mon {
        m.barrier_arrive(ex.thread_id());
    }
    ex.th().barrier();
    if let Some(m) = &cx.mon {
        m.barrier_depart(ex.thread_id());
    }
}

/// Run the pending barrier, if any: every thread of the team reaches
/// the same region-level statement with the same flag (DESIGN.md §2j).
pub(crate) fn settle(cx: &mut Icx<'_>, ex: &mut Exec<'_, '_, '_>) {
    if std::mem::take(&mut cx.pending) {
        mon_barrier(cx, ex);
    }
}

pub(crate) enum Flow {
    Normal,
    Ret(f64),
}

// ----------------------------------------------------------------------
// Program entry
// ----------------------------------------------------------------------

/// Everything `run` gives back to the embedder (see [`crate::ProgramOutput`]).
pub(crate) struct MasterOut {
    pub ret: f64,
    pub lines: Vec<String>,
    pub scalars: BTreeMap<String, f64>,
    pub arrays: BTreeMap<String, Vec<f64>>,
    pub races: Vec<DataRace>,
}

pub(crate) fn run_master(code: &Arc<Code>, env: &mut Env<'_>, check_races: bool) -> MasterOut {
    let prog = &code.l;
    let mut globals: Vec<GSlot> = Vec::with_capacity(prog.globals.len());
    let mut lines: Vec<String> = Vec::new();
    let mon = check_races.then(|| {
        Arc::new(Monitor::new(
            env.num_threads(),
            env.threads_per_node(),
            prog.globals.iter().map(|g| g.name.clone()).collect(),
        ))
    });

    // Initializers and lengths see the globals declared before them and
    // no frame.
    for (g, init) in prog.globals.iter().zip(&code.globals) {
        let v = init.as_ref().map_or(0.0, |e| {
            let mut cx = Icx {
                code,
                globals: &globals,
                loops: &[],
                lines: &mut lines,
                stack: Vec::new(),
                depth: 0,
                mon: mon.clone(),
                pending: false,
            };
            e(&mut cx, &mut Exec::Master(env), 0)
        });
        globals.push(match g.kind {
            LGlobalKind::Scalar { .. } => {
                let v = if g.trunc { v.trunc() } else { v };
                // Fresh shared memory is zero on every node: writing +0.0
                // would only twin the page and send each node that reads
                // the global first after an empty diff.
                GSlot::Scalar(if v.to_bits() == 0 {
                    SharedScalar::from_vec(env.malloc_vec(1))
                } else {
                    env.malloc_scalar(v)
                })
            }
            LGlobalKind::Array { .. } => {
                let n = v.trunc();
                if !(1.0..=1e8).contains(&n) {
                    panic!(
                        "ompc runtime error at line {}: array `{}` has invalid length {n}",
                        g.span, g.name
                    );
                }
                GSlot::Array(env.malloc_vec::<f64>(n as usize))
            }
        });
    }

    let mut cx = Icx {
        code,
        globals: &globals,
        loops: &[],
        lines: &mut lines,
        stack: new_stack(prog.funcs[prog.main_fn].frame),
        depth: 0,
        mon: mon.clone(),
        pending: false,
    };
    let ret = match code.funcs[prog.main_fn](&mut cx, &mut Exec::Master(env), 0) {
        Flow::Ret(v) => v,
        Flow::Normal => 0.0,
    };

    let mut scalars = BTreeMap::new();
    let mut arrays = BTreeMap::new();
    for (g, slot) in prog.globals.iter().zip(&globals) {
        match slot {
            GSlot::Scalar(s) => {
                scalars.insert(g.name.clone(), s.get(env));
            }
            GSlot::Array(a) => {
                arrays.insert(g.name.clone(), env.read_slice(a, 0..a.len()));
            }
        }
    }
    MasterOut {
        ret,
        lines,
        scalars,
        arrays,
        races: mon.as_ref().map(|m| m.take_races()).unwrap_or_default(),
    }
}

// ----------------------------------------------------------------------
// Region + task execution
// ----------------------------------------------------------------------

pub(crate) fn fork_region(cx: &mut Icx<'_>, ex: &mut Exec<'_, '_, '_>, fp: usize, rid: usize) {
    let env = ex.env();
    let reg = &cx.code.l.regions[rid];
    let loops: Vec<LoopRt> = reg
        .loops
        .iter()
        .map(|ls| {
            let sched = env.resolve_schedule(to_schedule(*ls));
            let shared = env.alloc_loop_shared(sched);
            (sched, shared)
        })
        .collect();
    // The fork message carries the firstprivate environment: the whole
    // enclosing frame, 8 bytes per slot.
    let snapshot: Vec<f64> = cx.stack[fp..fp + reg.frame].to_vec();
    let payload = snapshot.len() * 8;
    let code = cx.code.clone();
    let globals: Vec<GSlot> = cx.globals.to_vec();
    let mon = cx.mon.clone();
    if let Some(m) = &mon {
        m.fork();
    }
    if reg.uses_tasks {
        let (code2, code3) = (code.clone(), code.clone());
        let globals2 = globals.clone();
        let mon2 = mon.clone();
        let mon3 = mon.clone();
        env.task_scope_then(
            TaskScopeConfig {
                fork_payload_bytes: payload,
                ..Default::default()
            },
            move |s| {
                let mut ex = Exec::Tasks(s);
                run_region_thread(&code, &globals, &loops, rid, &snapshot, &mon2, &mut ex);
            },
            move |s, args| {
                let mut ex = Exec::Tasks(s);
                run_task_site(&code2, &globals2, args, &mon3, &mut ex);
            },
            // Tasks accumulate until the scheduler ends: contribute after.
            move |s| contribute_accums(&mut Exec::Tasks(s), &code3.l, rid),
        );
    } else {
        let mon2 = mon.clone();
        env.parallel_sized(payload, move |t| {
            let mut ex = Exec::Thread(t);
            run_region_thread(&code, &globals, &loops, rid, &snapshot, &mon2, &mut ex);
            contribute_accums(&mut ex, &code.l, rid);
        });
    }
    if let Some(m) = &mon {
        m.join();
    }
    let joined = reg.reds.iter().map(|r| r.site);
    for site in joined.chain(reg.accums.iter().map(|&k| cx.code.l.accums[k as usize])) {
        fold_red(env, cx.globals, site);
    }
}

fn run_region_thread(
    code: &Arc<Code>,
    globals: &[GSlot],
    loops: &[LoopRt],
    rid: usize,
    snapshot: &[f64],
    mon: &Option<Arc<Monitor>>,
    ex: &mut Exec<'_, '_, '_>,
) {
    let reg = &code.l.regions[rid];
    let mut frame = new_stack(reg.frame);
    frame[..snapshot.len()].copy_from_slice(snapshot);
    for red in &reg.reds {
        frame[red.slot as usize] = f64::identity(red.site.op);
    }
    if !reg.accums.is_empty() {
        let ids = code.l.accums.iter().map(|a| f64::identity(a.op));
        ACCUMS.with_borrow_mut(|acc| *acc = ids.collect());
    }
    let mut lines = Vec::new();
    let mut cx = Icx {
        code,
        globals,
        loops,
        lines: &mut lines,
        stack: frame,
        depth: 0,
        mon: mon.clone(),
        pending: false,
    };
    let flow = code.regions[rid](&mut cx, ex, 0);
    debug_assert!(matches!(flow, Flow::Normal), "return escaped a region");
    // A barrier still pending here orders nothing the join does not: each
    // slave's join arrival is a release the next fork acquires.
    for red in &reg.reds {
        contribute_red(ex, red.site, cx.stack[red.slot as usize]);
    }
    flush_lines(ex, lines);
}

fn run_task_site(
    code: &Arc<Code>,
    globals: &[GSlot],
    args: TaskArgs,
    mon: &Option<Arc<Monitor>>,
    ex: &mut Exec<'_, '_, '_>,
) {
    let site = &code.l.tasks[args.a as usize];
    let mut frame = new_stack(site.frame);
    let words = [args.b, args.c, args.d];
    for (i, &slot) in site.caps.iter().enumerate() {
        frame[slot as usize] = f64::from_bits(words[i]);
    }
    if let Some(m) = mon {
        m.task_started(ex.thread_id());
    }
    let mut lines = Vec::new();
    let mut cx = Icx {
        code,
        globals,
        loops: &[],
        lines: &mut lines,
        stack: frame,
        depth: 0,
        mon: mon.clone(),
        pending: false,
    };
    let flow = code.tasks[args.a as usize](&mut cx, ex, 0);
    debug_assert!(matches!(flow, Flow::Normal), "return escaped a task");
    if let Some(m) = mon {
        m.task_finished(ex.thread_id());
    }
    flush_lines(ex, lines);
}

fn flush_lines(ex: &mut Exec<'_, '_, '_>, lines: Vec<String>) {
    if lines.is_empty() {
        return;
    }
    let tid = ex.thread_id();
    for l in lines {
        println!("[t{tid}] {l}");
    }
}

thread_local! {
    /// The running region thread's accumulators of the program's
    /// accumulate-only globals (`LProgram::accums`, same order). One
    /// host thread runs one simulated thread, and its tasks run on it
    /// too, so these are that thread's private copies for the region.
    static ACCUMS: RefCell<Vec<f64>> = const { RefCell::new(Vec::new()) };
}

/// One lowered `critical` update in parallel context: `acc ⊕= v` on the
/// executing thread's accumulator `k`.
pub(crate) fn accumulate(k: usize, op: RedOp, v: f64) {
    ACCUMS.with_borrow_mut(|acc| acc[k] = f64::combine(op, acc[k], v));
}

/// The end of region `rid`'s accumulate-only globals on one thread:
/// every site the region reaches, the identity where this thread never
/// updated it, so that every node's team folds every site.
fn contribute_accums(ex: &mut Exec<'_, '_, '_>, l: &LProgram, rid: usize) {
    let sites = &l.regions[rid].accums;
    if sites.is_empty() {
        return;
    }
    let acc = ACCUMS.take();
    for &k in sites {
        contribute_red(ex, l.accums[k as usize], acc[k as usize]);
    }
}

/// The end of a region-level reduction on one thread. Two-level: the
/// team folds in node shared memory first, and one thread per node
/// contributes the node total to the join (on n×1 every thread is its
/// node's). No lock and no shared page: the master folds the partials
/// after the join ([`fold_red`]).
fn contribute_red(ex: &mut Exec<'_, '_, '_>, site: JoinSite, local: f64) {
    let (op, key) = (site.op, site.key);
    let th = ex.th();
    if let Some(total) = th.reduce_combine(key, local, move |a, b| f64::combine(op, a, b)) {
        th.contribute(key, &[total]);
    }
}

/// The master's fold of a region-level reduction after the join: the
/// shared variable, then each node's partial in node order, as a lock
/// chain granted in node order would combine them. Only the master runs
/// until the next fork, whose release carries the one write to every
/// node.
fn fold_red(t: &mut Tmk, globals: &[GSlot], site: JoinSite) {
    let GSlot::Scalar(s) = globals[site.gid as usize] else {
        unreachable!("reduction on array global");
    };
    let mut acc = s.get(t);
    for p in t.take_partials::<f64>(site.key) {
        let next = f64::combine(site.op, acc, p[0]);
        acc = if site.trunc { next.trunc() } else { next };
    }
    s.set(t, acc);
}

/// The end of an interior `for reduction` on one thread. Two-level: the
/// team folds in node shared memory first, and one thread per node
/// combines the node total into the shared variable under the site's
/// lock. The loop's barrier follows, and any thread may read the
/// variable right after it: only a write closed before that barrier
/// gives every thread the reduced value, so this path keeps its lock.
pub(crate) fn combine_red(
    ex: &mut Exec<'_, '_, '_>,
    globals: &[GSlot],
    site: JoinSite,
    local: f64,
) {
    let GSlot::Scalar(s) = globals[site.gid as usize] else {
        unreachable!("reduction on array global");
    };
    let (op, trunc, lock) = (site.op, site.trunc, site.key);
    let th = ex.th();
    if let Some(total) = th.reduce_combine(lock, local, move |a, b| f64::combine(op, a, b)) {
        th.enter_critical(lock);
        let cur = s.get(th);
        let next = f64::combine(op, cur, total);
        s.set(th, if trunc { next.trunc() } else { next });
        th.exit_critical(lock);
    }
}

pub(crate) fn check_index(cx: &Icx<'_>, gid: u16, i: f64, len: usize, span: Span) -> usize {
    let ii = i.trunc();
    // NB: the comparison is written so NaN fails it too.
    if !(ii >= 0.0 && ii < len as f64) {
        panic!(
            "ompc runtime error at line {span}: index {i} out of bounds for `{}` (len {len})",
            cx.code.l.globals[gid as usize].name
        );
    }
    ii as usize
}

/// The chunk of a `schedule(dynamic)` clause that names none.
const DEFAULT_DYNAMIC_CHUNK: usize = 16;

fn to_schedule(ls: LSched) -> Schedule {
    match ls.kind {
        SchedKind::Static => {
            if ls.chunk == 0 {
                Schedule::Static
            } else {
                Schedule::StaticChunk(ls.chunk)
            }
        }
        SchedKind::Dynamic => Schedule::Dynamic(if ls.chunk == 0 {
            DEFAULT_DYNAMIC_CHUNK
        } else {
            ls.chunk
        }),
        SchedKind::Guided => Schedule::Guided(ls.chunk.max(1)),
        SchedKind::Adaptive => Schedule::Adaptive(ls.chunk.max(1)),
        SchedKind::Affinity => Schedule::Affinity,
        SchedKind::Runtime => Schedule::Runtime,
    }
}

pub(crate) fn fmt_val(v: f64) -> String {
    if v.fract() == 0.0 && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else {
        format!("{v}")
    }
}

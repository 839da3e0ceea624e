//! Tree-walking interpreter executing the lowered IR on the NOW runtime.
//!
//! Sequential code runs in the master's context ([`nomp::Env`]); a
//! [`LStmt::Parallel`] statement outlines its region body into a closure
//! and forks it onto every simulated workstation exactly like a
//! hand-written `nomp` program, shipping a copy of the enclosing private
//! frame as the firstprivate environment (modeled in the fork payload).
//! Shared globals are `SharedScalar`/`SharedVec` handles, so every
//! access a translated program makes pays real protocol traffic and
//! virtual time on the simulated network.
//!
//! Regions from which a `task`/`taskwait` is reachable (lexically or
//! through called functions — resolved by sema) run as distributed task
//! scopes ([`nomp::Env::task_scope`]): the region body becomes the
//! scope's init phase and each `task` construct ships its ≤3 captured
//! privates through the 32-byte task descriptor. Other regions fork as
//! plain parallel regions and pay no tasking overhead.
//!
//! Compile-time errors are [`crate::Diag`]s; *runtime* errors (index out
//! of bounds, invalid array length, modulo by zero) panic with a spanned
//! `ompc runtime error` message, the translated analogue of a segfault.

use crate::ast::{BinOp, SchedKind, UnOp};
use crate::diag::Span;
use crate::dynrace::{DataRace, Monitor};
use crate::ir::*;
use nomp::{
    Env, LoopCursor, LoopPlan, LoopShared, OmpThread, Reduce, Schedule, SharedScalar, SharedVec,
    TaskArgs, TaskScope, TaskScopeConfig, Tmk,
};
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
type LoopRt = (Schedule, Option<LoopShared>);

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
    fn tmk(&mut self) -> &mut Tmk {
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

    fn th(&mut self) -> &mut OmpThread<'t> {
        match self {
            Exec::Thread(t) => t,
            Exec::Tasks(s) => s,
            Exec::Master(_) => unreachable!("worksharing outside a parallel region (sema bug)"),
        }
    }

    fn is_master_seq(&self) -> bool {
        matches!(self, Exec::Master(_))
    }

    /// The executing thread's global id (0 in sequential context).
    fn thread_id(&mut self) -> usize {
        match self {
            Exec::Master(_) => 0,
            Exec::Thread(t) => t.thread_num(),
            Exec::Tasks(s) => s.thread_num(),
        }
    }

    /// Total processors of the simulated machine:
    /// `nodes × threads_per_node`.
    fn total_procs(&mut self) -> usize {
        match self {
            Exec::Master(e) => e.num_threads(),
            Exec::Thread(t) => t.num_threads(),
            Exec::Tasks(s) => s.num_threads(),
        }
    }

    fn spawn(&mut self, args: TaskArgs) {
        match self {
            Exec::Tasks(s) => s.task(args),
            _ => unreachable!("task spawn outside a task scope (sema bug)"),
        }
    }

    fn taskwait(&mut self) {
        match self {
            Exec::Tasks(s) => s.taskwait(),
            _ => unreachable!("taskwait outside a task scope (sema bug)"),
        }
    }
}

/// Bound on translated-program call nesting: runaway recursion must be
/// a clean spanned runtime error, not a host stack overflow (the parser
/// bounds expression nesting the same way).
const MAX_CALL_DEPTH: u32 = 256;

/// Shared interpreter state for one execution context.
struct Icx<'x> {
    prog: &'x Arc<LProgram>,
    globals: &'x [GSlot],
    /// Resolved loop sites of the enclosing region (empty elsewhere).
    loops: &'x [LoopRt],
    /// Print sink: captured on the master, flushed with a `[t<id>]`
    /// prefix at the end of a region/task on workers.
    lines: &'x mut Vec<String>,
    /// Current translated-program call depth (bounded by
    /// [`MAX_CALL_DEPTH`]).
    depth: u32,
    /// Dynamic happens-before race monitor (`Compiled::check_races`).
    mon: Option<Arc<Monitor>>,
}

/// Record one shared access with the race monitor, if it is on.
fn note_access(
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
fn mon_barrier(cx: &Icx<'_>, ex: &mut Exec<'_, '_, '_>) {
    if let Some(m) = &cx.mon {
        m.barrier_arrive(ex.thread_id());
    }
    ex.th().barrier();
    if let Some(m) = &cx.mon {
        m.barrier_depart(ex.thread_id());
    }
}

enum Flow {
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

pub(crate) fn run_master(prog: &Arc<LProgram>, env: &mut Env<'_>, check_races: bool) -> MasterOut {
    let mut globals: Vec<GSlot> = Vec::with_capacity(prog.globals.len());
    let mut lines: Vec<String> = Vec::new();
    let mon = check_races.then(|| {
        Arc::new(Monitor::new(
            env.num_threads(),
            env.threads_per_node(),
            prog.globals.iter().map(|g| g.name.clone()).collect(),
        ))
    });

    for g in &prog.globals {
        match &g.kind {
            LGlobalKind::Scalar { init } => {
                let v = match init {
                    Some(e) => {
                        let mut ex = Exec::Master(env);
                        let mut frame = Vec::new();
                        let mut cx = Icx {
                            prog,
                            globals: &globals,
                            loops: &[],
                            lines: &mut lines,
                            depth: 0,
                            mon: mon.clone(),
                        };
                        eval(&mut cx, &mut ex, &mut frame, e)
                    }
                    None => 0.0,
                };
                let v = if g.trunc { v.trunc() } else { v };
                globals.push(GSlot::Scalar(env.malloc_scalar(v)));
            }
            LGlobalKind::Array { len } => {
                let mut ex = Exec::Master(env);
                let mut frame = Vec::new();
                let mut cx = Icx {
                    prog,
                    globals: &globals,
                    loops: &[],
                    lines: &mut lines,
                    depth: 0,
                    mon: mon.clone(),
                };
                let n = eval(&mut cx, &mut ex, &mut frame, len).trunc();
                if !(1.0..=1e8).contains(&n) {
                    panic!(
                        "ompc runtime error at line {}: array `{}` has invalid length {n}",
                        g.span, g.name
                    );
                }
                globals.push(GSlot::Array(env.malloc_vec::<f64>(n as usize)));
            }
        }
    }

    let f = &prog.funcs[prog.main_fn];
    let mut frame = vec![0.0; f.frame];
    let flow = {
        let mut ex = Exec::Master(env);
        let mut cx = Icx {
            prog,
            globals: &globals,
            loops: &[],
            lines: &mut lines,
            depth: 0,
            mon: mon.clone(),
        };
        exec_stmts(&mut cx, &mut ex, &mut frame, &f.body)
    };
    let ret = match flow {
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

fn fork_region(cx: &mut Icx<'_>, ex: &mut Exec<'_, '_, '_>, frame: &mut [f64], rid: usize) {
    let env = ex.env();
    let reg = &cx.prog.regions[rid];
    let default_chunk = env.default_dynamic_chunk();
    let loops: Vec<LoopRt> = reg
        .loops
        .iter()
        .map(|ls| {
            let sched = env.resolve_schedule(to_schedule(*ls, default_chunk));
            let shared = env.alloc_loop_shared(sched);
            (sched, shared)
        })
        .collect();
    let snapshot: Vec<f64> = frame.to_vec();
    // The fork message carries the firstprivate environment: the whole
    // enclosing frame, 8 bytes per slot.
    let payload = snapshot.len() * 8;
    let prog = cx.prog.clone();
    let globals: Vec<GSlot> = cx.globals.to_vec();
    let mon = cx.mon.clone();
    if let Some(m) = &mon {
        m.fork();
    }
    if reg.uses_tasks {
        let prog2 = prog.clone();
        let globals2 = globals.clone();
        let mon2 = mon.clone();
        let mon3 = mon.clone();
        env.task_scope(
            TaskScopeConfig {
                fork_payload_bytes: payload,
                ..Default::default()
            },
            move |s| {
                let mut ex = Exec::Tasks(s);
                run_region_thread(&prog, &globals, &loops, rid, &snapshot, &mon2, &mut ex);
            },
            move |s, args| {
                let mut ex = Exec::Tasks(s);
                run_task_site(&prog2, &globals2, args, &mon3, &mut ex);
            },
        );
    } else {
        let mon2 = mon.clone();
        env.parallel_sized(payload, move |t| {
            let mut ex = Exec::Thread(t);
            run_region_thread(&prog, &globals, &loops, rid, &snapshot, &mon2, &mut ex);
        });
    }
    if let Some(m) = &mon {
        m.join();
    }
}

fn run_region_thread(
    prog: &Arc<LProgram>,
    globals: &[GSlot],
    loops: &[LoopRt],
    rid: usize,
    snapshot: &[f64],
    mon: &Option<Arc<Monitor>>,
    ex: &mut Exec<'_, '_, '_>,
) {
    let reg = &prog.regions[rid];
    let mut frame = snapshot.to_vec();
    frame.resize(reg.frame, 0.0);
    for red in &reg.reds {
        frame[red.slot as usize] = f64::identity(red.op);
    }
    let mut lines = Vec::new();
    let flow = {
        let mut cx = Icx {
            prog,
            globals,
            loops,
            lines: &mut lines,
            depth: 0,
            mon: mon.clone(),
        };
        exec_stmts(&mut cx, ex, &mut frame, &reg.body)
    };
    debug_assert!(matches!(flow, Flow::Normal), "return escaped a region");
    for red in &reg.reds {
        combine_red(ex, globals, red, frame[red.slot as usize]);
    }
    flush_lines(ex, lines);
}

fn run_task_site(
    prog: &Arc<LProgram>,
    globals: &[GSlot],
    args: TaskArgs,
    mon: &Option<Arc<Monitor>>,
    ex: &mut Exec<'_, '_, '_>,
) {
    let site = &prog.tasks[args.a as usize];
    let mut frame = vec![0.0; site.frame];
    let words = [args.b, args.c, args.d];
    for (i, &slot) in site.caps.iter().enumerate() {
        frame[slot as usize] = f64::from_bits(words[i]);
    }
    if let Some(m) = mon {
        m.task_started(ex.thread_id());
    }
    let mut lines = Vec::new();
    let flow = {
        let mut cx = Icx {
            prog,
            globals,
            loops: &[],
            lines: &mut lines,
            depth: 0,
            mon: mon.clone(),
        };
        exec_stmts(&mut cx, ex, &mut frame, &site.body)
    };
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

// ----------------------------------------------------------------------
// Statements
// ----------------------------------------------------------------------

fn exec_stmts(
    cx: &mut Icx<'_>,
    ex: &mut Exec<'_, '_, '_>,
    frame: &mut Vec<f64>,
    stmts: &[LStmt],
) -> Flow {
    for s in stmts {
        match exec_stmt(cx, ex, frame, s) {
            Flow::Normal => {}
            ret => return ret,
        }
    }
    Flow::Normal
}

fn exec_stmt(cx: &mut Icx<'_>, ex: &mut Exec<'_, '_, '_>, frame: &mut Vec<f64>, s: &LStmt) -> Flow {
    match s {
        LStmt::SetLocal {
            slot, trunc, val, ..
        } => {
            let v = eval(cx, ex, frame, val);
            frame[*slot as usize] = if *trunc { v.trunc() } else { v };
        }
        LStmt::SetGlobal {
            gid,
            trunc,
            val,
            span,
        } => {
            let v = eval(cx, ex, frame, val);
            let v = if *trunc { v.trunc() } else { v };
            let GSlot::Scalar(s) = cx.globals[*gid as usize] else {
                unreachable!("SetGlobal on array");
            };
            s.set(ex.tmk(), v);
            note_access(cx, ex, *gid, None, true, *span);
        }
        LStmt::SetElem {
            gid,
            trunc,
            idx,
            val,
            span,
        } => {
            let i = eval(cx, ex, frame, idx);
            let v = eval(cx, ex, frame, val);
            let v = if *trunc { v.trunc() } else { v };
            let GSlot::Array(a) = cx.globals[*gid as usize] else {
                unreachable!("SetElem on scalar");
            };
            let i = check_index(cx, *gid, i, a.len(), *span);
            ex.tmk().write(&a, i, v);
            note_access(cx, ex, *gid, Some(i), true, *span);
        }
        LStmt::If { cond, then_, else_ } => {
            let c = eval(cx, ex, frame, cond);
            let branch = if c != 0.0 { then_ } else { else_ };
            return exec_stmts(cx, ex, frame, branch);
        }
        LStmt::While { cond, body } => {
            while eval(cx, ex, frame, cond) != 0.0 {
                match exec_stmts(cx, ex, frame, body) {
                    Flow::Normal => {}
                    ret => return ret,
                }
            }
        }
        LStmt::Return(v) => {
            let val = v.as_ref().map(|e| eval(cx, ex, frame, e)).unwrap_or(0.0);
            return Flow::Ret(val);
        }
        LStmt::Expr(e) => {
            eval(cx, ex, frame, e);
        }
        LStmt::Print(parts) => {
            let mut line = String::new();
            for p in parts {
                match p {
                    LPrint::Str(s) => line.push_str(s),
                    LPrint::Val(e) => {
                        let v = eval(cx, ex, frame, e);
                        line.push_str(&fmt_val(v));
                    }
                }
            }
            cx.lines.push(line);
        }
        LStmt::Parallel { region } => {
            fork_region(cx, ex, frame, *region as usize);
        }
        LStmt::WsFor(w) => exec_ws_for(cx, ex, frame, w),
        LStmt::Single { body, .. } => {
            if ex.thread_id() == 0 {
                let flow = exec_stmts(cx, ex, frame, body);
                debug_assert!(matches!(flow, Flow::Normal));
            }
            // Implied barrier (two-level on SMP topologies).
            mon_barrier(cx, ex);
        }
        LStmt::Critical { lock, body, .. } => {
            // In a sequential section only the master runs — no
            // contention is possible, so the lock is elided. The guard
            // frees the node gate on unwind, so a translated-program
            // runtime panic inside the section cannot wedge an SMP node.
            let seq = ex.is_master_seq();
            let txn = (!seq).then(|| ex.th().enter_critical(*lock));
            if !seq {
                if let Some(m) = &cx.mon {
                    m.acquire(ex.thread_id(), *lock);
                }
            }
            let flow = exec_stmts(cx, ex, frame, body);
            if !seq {
                if let Some(m) = &cx.mon {
                    m.release(ex.thread_id(), *lock);
                }
                ex.th().exit_critical(*lock);
            }
            drop(txn);
            debug_assert!(matches!(flow, Flow::Normal));
        }
        LStmt::Barrier(_) => mon_barrier(cx, ex),
        LStmt::Task { site } => {
            let t = &cx.prog.tasks[*site as usize];
            let mut words = [0u64; 3];
            for (i, &slot) in t.caps.iter().enumerate() {
                words[i] = frame[slot as usize].to_bits();
            }
            // The spawn edge must be published before the task can start
            // on another thread.
            if let Some(m) = &cx.mon {
                m.task_spawned(ex.thread_id());
            }
            ex.spawn(TaskArgs {
                a: *site as u64,
                b: words[0],
                c: words[1],
                d: words[2],
            });
        }
        LStmt::Taskwait => {
            ex.taskwait();
            if let Some(m) = &cx.mon {
                m.taskwait(ex.thread_id());
            }
        }
    }
    Flow::Normal
}

fn exec_ws_for(cx: &mut Icx<'_>, ex: &mut Exec<'_, '_, '_>, frame: &mut Vec<f64>, w: &WsFor) {
    // Copy the slice reference out of `cx` so the loop-site borrow does
    // not pin `cx` across the bound evaluations below.
    let loops = cx.loops;
    let (sched, shared) = &loops[w.loop_idx as usize];
    let (sched, shared) = (*sched, shared.as_ref());
    let lo = eval(cx, ex, frame, &w.lo).trunc();
    let hi = eval(cx, ex, frame, &w.hi).trunc();
    if !(lo >= 0.0 && hi <= 1e15 && hi.is_finite()) {
        panic!(
            "ompc runtime error at line {}: work-shared loop bounds out of range ({lo}..{hi})",
            w.span
        );
    }
    let lo = lo as usize;
    let hi = (hi.max(0.0) as usize).max(lo);
    let plan = LoopPlan::new(sched, lo..hi, shared.cloned());
    for red in &w.reds {
        frame[red.slot as usize] = f64::identity(red.op);
    }
    let mut cursor = LoopCursor::new();
    while let Some(r) = plan.next_chunk(ex.th(), &mut cursor) {
        for i in r {
            frame[w.var as usize] = i as f64;
            let flow = exec_stmts(cx, ex, frame, &w.body);
            debug_assert!(matches!(flow, Flow::Normal), "return escaped a loop");
        }
    }
    for red in &w.reds {
        combine_red(ex, cx.globals, red, frame[red.slot as usize]);
    }
    if w.barrier_after {
        // The implied end-of-worksharing barrier (two-level on SMP).
        mon_barrier(cx, ex);
    }
    if w.reset_after {
        if let Some(sh) = shared {
            // The region may run this loop again: reset the shared loop
            // state behind the implied barrier, and fence the reset so
            // no thread can re-enter early. (Adaptive rate history and
            // affinity partition identity survive the reset — that is
            // the cross-execution history those policies exploit.)
            if ex.thread_id() == 0 {
                sh.reset(ex.tmk());
            }
            mon_barrier(cx, ex);
        }
    }
}

fn combine_red(ex: &mut Exec<'_, '_, '_>, globals: &[GSlot], red: &RedSite, local: f64) {
    let GSlot::Scalar(s) = globals[red.gid as usize] else {
        unreachable!("reduction on array global");
    };
    // Two-level: combine in node shared memory first; one thread per
    // node publishes the node total under the site's lock (a single DSM
    // contribution per node — on n×1 every thread publishes its own).
    let (op, trunc, lock) = (red.op, red.trunc, red.lock);
    let th = ex.th();
    if let Some(total) = th.reduce_combine(lock, local, move |a, b| f64::combine(op, a, b)) {
        th.enter_critical(lock);
        let cur = s.get(th);
        let next = f64::combine(op, cur, total);
        s.set(th, if trunc { next.trunc() } else { next });
        th.exit_critical(lock);
    }
}

// ----------------------------------------------------------------------
// Expressions
// ----------------------------------------------------------------------

fn eval(cx: &mut Icx<'_>, ex: &mut Exec<'_, '_, '_>, frame: &mut Vec<f64>, e: &LExpr) -> f64 {
    match e {
        LExpr::Num(v) => *v,
        LExpr::Local(slot) => frame[*slot as usize],
        LExpr::Global(gid, span) => {
            let GSlot::Scalar(s) = cx.globals[*gid as usize] else {
                unreachable!("scalar read of array");
            };
            let v = s.get(ex.tmk());
            note_access(cx, ex, *gid, None, false, *span);
            v
        }
        LExpr::Elem(gid, idx, span) => {
            let i = eval(cx, ex, frame, idx);
            let GSlot::Array(a) = cx.globals[*gid as usize] else {
                unreachable!("indexed read of scalar");
            };
            let i = check_index(cx, *gid, i, a.len(), *span);
            let v = ex.tmk().read(&a, i);
            note_access(cx, ex, *gid, Some(i), false, *span);
            v
        }
        LExpr::Un(op, a) => {
            let v = eval(cx, ex, frame, a);
            match op {
                UnOp::Neg => -v,
                UnOp::Not => {
                    if v == 0.0 {
                        1.0
                    } else {
                        0.0
                    }
                }
            }
        }
        LExpr::Bin(op, a, b) => {
            // Short-circuit logicals first.
            match op {
                BinOp::And => {
                    return if eval(cx, ex, frame, a) != 0.0 && eval(cx, ex, frame, b) != 0.0 {
                        1.0
                    } else {
                        0.0
                    };
                }
                BinOp::Or => {
                    return if eval(cx, ex, frame, a) != 0.0 || eval(cx, ex, frame, b) != 0.0 {
                        1.0
                    } else {
                        0.0
                    };
                }
                _ => {}
            }
            let x = eval(cx, ex, frame, a);
            let y = eval(cx, ex, frame, b);
            let bool_to_f = |b: bool| if b { 1.0 } else { 0.0 };
            match op {
                BinOp::Add => x + y,
                BinOp::Sub => x - y,
                BinOp::Mul => x * y,
                BinOp::Div => x / y,
                BinOp::Mod => {
                    let yi = y.trunc() as i64;
                    if yi == 0 {
                        panic!("ompc runtime error: modulo by zero");
                    }
                    ((x.trunc() as i64) % yi) as f64
                }
                BinOp::Eq => bool_to_f(x == y),
                BinOp::Ne => bool_to_f(x != y),
                BinOp::Lt => bool_to_f(x < y),
                BinOp::Le => bool_to_f(x <= y),
                BinOp::Gt => bool_to_f(x > y),
                BinOp::Ge => bool_to_f(x >= y),
                BinOp::And | BinOp::Or => unreachable!(),
            }
        }
        LExpr::Call(fid, args) => {
            let f = &cx.prog.funcs[*fid as usize];
            let mut new_frame = vec![0.0; f.frame];
            for (i, a) in args.iter().enumerate() {
                let v = eval(cx, ex, frame, a);
                new_frame[i] = if f.param_trunc[i] { v.trunc() } else { v };
            }
            cx.depth += 1;
            if cx.depth > MAX_CALL_DEPTH {
                panic!(
                    "ompc runtime error: call depth exceeded {MAX_CALL_DEPTH} (runaway recursion?)"
                );
            }
            let r = match exec_stmts(cx, ex, &mut new_frame, &f.body) {
                Flow::Ret(v) => v,
                Flow::Normal => 0.0,
            };
            cx.depth -= 1;
            r
        }
        LExpr::Builtin(b, args) => {
            let mut vals = [0.0f64; 2];
            for (i, a) in args.iter().enumerate() {
                vals[i] = eval(cx, ex, frame, a);
            }
            match b {
                Builtin::Sqrt => vals[0].sqrt(),
                Builtin::Fabs => vals[0].abs(),
                Builtin::Floor => vals[0].floor(),
                Builtin::Sin => vals[0].sin(),
                Builtin::Cos => vals[0].cos(),
                Builtin::Exp => vals[0].exp(),
                Builtin::ThreadNum => ex.thread_id() as f64,
                Builtin::NumThreads => {
                    if ex.is_master_seq() {
                        1.0
                    } else {
                        ex.total_procs() as f64
                    }
                }
                Builtin::NumProcs => ex.total_procs() as f64,
                Builtin::Wtime => ex.tmk().now_ns() as f64 / 1e9,
            }
        }
    }
}

fn check_index(cx: &Icx<'_>, gid: u16, i: f64, len: usize, span: crate::diag::Span) -> usize {
    let ii = i.trunc();
    // NB: the comparison is written so NaN fails it too.
    if !(ii >= 0.0 && ii < len as f64) {
        panic!(
            "ompc runtime error at line {span}: index {i} out of bounds for `{}` (len {len})",
            cx.prog.globals[gid as usize].name
        );
    }
    ii as usize
}

fn to_schedule(ls: LSched, default_dynamic: usize) -> Schedule {
    match ls.kind {
        SchedKind::Static => {
            if ls.chunk == 0 {
                Schedule::Static
            } else {
                Schedule::StaticChunk(ls.chunk)
            }
        }
        SchedKind::Dynamic => Schedule::Dynamic(if ls.chunk == 0 {
            default_dynamic
        } else {
            ls.chunk
        }),
        SchedKind::Guided => Schedule::Guided(ls.chunk.max(1)),
        SchedKind::Adaptive => Schedule::Adaptive(ls.chunk.max(1)),
        SchedKind::Affinity => Schedule::Affinity,
        SchedKind::Runtime => Schedule::Runtime,
    }
}

fn fmt_val(v: f64) -> String {
    if v.fract() == 0.0 && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else {
        format!("{v}")
    }
}

//! Compiles the lowered IR to a tree of boxed closures, once per program.
//!
//! [`compile`] visits every [`LStmt`]/[`LExpr`] of every function, region
//! and task body exactly once and returns closures that no longer know the
//! IR exists. What the IR fixes is decided here and captured by value:
//! frame slots and global indices, the operator, the `int` truncation of
//! a store (its own closure variant, not a flag), constant sub-expressions
//! (`Num ∘ Num` folded with the very operation the closure would run, so
//! nothing is reassociated), the source span of every runtime error, and
//! the *shape* of a binary operation's operands — a constant or a frame
//! slot is read in place instead of through a call ([`shapes`]).
//!
//! What only a run knows stays in the [`Icx`]/[`Exec`] the closures are
//! handed: DSM handles, loop-site state, the call stack, the race
//! monitor. The tree holds no per-run state and is `Send + Sync`, so one
//! [`Code`] serves every thread of every run of its program.
//!
//! Evaluation order is the source's: left operand before right, index
//! before value, arguments left to right, `&&`/`||` short-circuit.

use crate::ast::{BinOp, UnOp};
use crate::diag::Span;
use crate::interp::{
    accumulate, check_index, combine_red, fmt_val, fork_region, mon_barrier, note_access, settle,
    Exec, Flow, GSlot, Icx, MAX_CALL_DEPTH,
};
use crate::ir::*;
use nomp::{LoopCursor, LoopPlan, RedOp, Reduce, TaskArgs};

/// A compiled expression: `(context, runtime handle, frame base) → value`.
/// Frame slot `s` of the running function is `cx.stack[fp + s]`.
pub(crate) type ExprFn =
    Box<dyn Fn(&mut Icx<'_>, &mut Exec<'_, '_, '_>, usize) -> f64 + Send + Sync>;

/// A compiled statement or block.
pub(crate) type StmtFn =
    Box<dyn Fn(&mut Icx<'_>, &mut Exec<'_, '_, '_>, usize) -> Flow + Send + Sync>;

/// The executable form of one [`LProgram`]; every table is indexed like
/// the `LProgram` table of the same name.
pub(crate) struct Code {
    /// The program this was compiled from: the analyzer's input, and the
    /// run's source of what is not code (names, frame sizes, loop
    /// schedules, reduction and task-capture sites).
    pub l: LProgram,
    /// A scalar's initializer (if any) or an array's length expression.
    pub globals: Vec<Option<ExprFn>>,
    pub funcs: Vec<StmtFn>,
    pub regions: Vec<StmtFn>,
    pub tasks: Vec<StmtFn>,
}

// `dyn Fn` hides its captures from the auto trait, and they are all
// plain values (slots, constants, spans, child closures): no interior
// mutability anywhere in the tree. Keeps `Compiled: UnwindSafe`, as it was
// when it held only the IR.
impl std::panic::RefUnwindSafe for Code {}

pub(crate) fn compile(l: LProgram) -> Code {
    let cg = Codegen { l: &l, level: None };
    let globals = l
        .globals
        .iter()
        .map(|g| match &g.kind {
            LGlobalKind::Scalar { init } => init.as_ref().map(|e| cg.expr(e).into_fn()),
            LGlobalKind::Array { len } => Some(cg.expr(len).into_fn()),
        })
        .collect();
    let funcs = l.funcs.iter().map(|f| cg.block(&f.body)).collect();
    let regions = (l.regions.iter())
        .map(|r| {
            // A task region's body is only its scope's init phase: the
            // tasks, which no walk of that body sees, run on any thread
            // at a `taskwait` and after it. Its barriers stay put.
            let level = (!r.uses_tasks).then(|| written_by(&l, &r.body));
            Codegen { l: &l, level }.block(&r.body)
        })
        .collect();
    let tasks = l.tasks.iter().map(|t| cg.block(&t.body)).collect();
    Code {
        l,
        globals,
        funcs,
        regions,
        tasks,
    }
}

// Boxing through these two gives each closure literal its higher-ranked
// signature (a bare `Box::new(|cx, ex, fp| …)` infers one lifetime too few).
fn expr<F>(f: F) -> ExprFn
where
    F: Fn(&mut Icx<'_>, &mut Exec<'_, '_, '_>, usize) -> f64 + Send + Sync + 'static,
{
    Box::new(f)
}

fn stmt<F>(f: F) -> StmtFn
where
    F: Fn(&mut Icx<'_>, &mut Exec<'_, '_, '_>, usize) -> Flow + Send + Sync + 'static,
{
    Box::new(f)
}

/// A compiled operand, still transparent where a parent can use that.
enum Opnd {
    Num(f64),
    Local(usize),
    Expr(ExprFn),
}

impl Opnd {
    fn into_fn(self) -> ExprFn {
        match self {
            Opnd::Num(v) => expr(move |_, _, _| v),
            Opnd::Local(s) => expr(move |cx, _, fp| cx.stack[fp + s]),
            Opnd::Expr(e) => e,
        }
    }

    /// The value as a store into an `int` (`trunc`) or `double` target
    /// sees it.
    fn stored(self, trunc: bool) -> ExprFn {
        match self {
            v if !trunc => v.into_fn(),
            Opnd::Num(v) => Opnd::Num(v.trunc()).into_fn(),
            v => {
                let e = v.into_fn();
                expr(move |cx, ex, fp| e(cx, ex, fp).trunc())
            }
        }
    }
}

/// Where a specialised closure's value goes: back to a parent expression,
/// or straight into a frame slot — an assignment whose right-hand side is
/// an operation is one closure, not a store calling a value.
trait Sink: Sized {
    type Out;
    fn closure<F>(self, value: F) -> Self::Out
    where
        F: Fn(&mut Icx<'_>, &mut Exec<'_, '_, '_>, usize) -> f64 + Send + Sync + 'static;
    fn constant(self, v: f64) -> Self::Out {
        self.closure(move |_, _, _| v)
    }
}

struct AsOpnd;

impl Sink for AsOpnd {
    type Out = Opnd;
    fn closure<F>(self, value: F) -> Opnd
    where
        F: Fn(&mut Icx<'_>, &mut Exec<'_, '_, '_>, usize) -> f64 + Send + Sync + 'static,
    {
        Opnd::Expr(Box::new(value))
    }
    fn constant(self, v: f64) -> Opnd {
        Opnd::Num(v)
    }
}

/// Store into a slot of the running frame; `TRUNC` for an `int` slot, so
/// neither variant tests a flag.
struct ToSlot<const TRUNC: bool>(usize);

impl<const TRUNC: bool> Sink for ToSlot<TRUNC> {
    type Out = StmtFn;
    fn closure<F>(self, value: F) -> StmtFn
    where
        F: Fn(&mut Icx<'_>, &mut Exec<'_, '_, '_>, usize) -> f64 + Send + Sync + 'static,
    {
        let slot = self.0;
        stmt(move |cx, ex, fp| {
            let v = value(cx, ex, fp);
            cx.stack[fp + slot] = if TRUNC { v.trunc() } else { v };
            Flow::Normal
        })
    }
}

/// `x ∘ y` for one operator, specialised on what the operands are: two
/// constants fold, and each of the eight remaining shapes gets a closure
/// that reads constants and frame slots in place.
fn shapes<K: Sink>(
    a: Opnd,
    b: Opnd,
    k: K,
    op: impl Fn(f64, f64) -> f64 + Copy + Send + Sync + 'static,
) -> K::Out {
    match (a, b) {
        (Opnd::Num(x), Opnd::Num(y)) => k.constant(op(x, y)),
        (Opnd::Local(a), Opnd::Local(b)) => {
            k.closure(move |cx, _, fp| op(cx.stack[fp + a], cx.stack[fp + b]))
        }
        (Opnd::Local(a), Opnd::Num(y)) => k.closure(move |cx, _, fp| op(cx.stack[fp + a], y)),
        (Opnd::Num(x), Opnd::Local(b)) => k.closure(move |cx, _, fp| op(x, cx.stack[fp + b])),
        (Opnd::Num(x), Opnd::Expr(b)) => k.closure(move |cx, ex, fp| op(x, b(cx, ex, fp))),
        (Opnd::Expr(a), Opnd::Num(y)) => k.closure(move |cx, ex, fp| op(a(cx, ex, fp), y)),
        (Opnd::Local(a), Opnd::Expr(b)) => k.closure(move |cx, ex, fp| {
            let x = cx.stack[fp + a];
            op(x, b(cx, ex, fp))
        }),
        (Opnd::Expr(a), Opnd::Local(b)) => k.closure(move |cx, ex, fp| {
            let x = a(cx, ex, fp);
            op(x, cx.stack[fp + b])
        }),
        (Opnd::Expr(a), Opnd::Expr(b)) => k.closure(move |cx, ex, fp| {
            let x = a(cx, ex, fp);
            op(x, b(cx, ex, fp))
        }),
    }
}

fn truth(b: bool) -> f64 {
    if b {
        1.0
    } else {
        0.0
    }
}

/// C's integer `%` on the truncated operands.
fn modulo(x: f64, y: f64, span: Span) -> f64 {
    let yi = y.trunc() as i64;
    if yi == 0 {
        panic!("ompc runtime error at line {span}: modulo by zero");
    }
    // `wrapping`: `i64::MIN % -1` is 0, not an arithmetic panic.
    (x.trunc() as i64).wrapping_rem(yi) as f64
}

enum PrintPart {
    Str(String),
    Val(ExprFn),
}

/// A work-shared loop site (see [`WsFor`]).
struct WsSite {
    loop_idx: usize,
    span: Span,
    var: usize,
    lo: ExprFn,
    hi: ExprFn,
    body: StmtFn,
    reds: Vec<RedSite>,
    barrier_after: bool,
    reset_after: bool,
    /// A plain region's level: the loop's barriers are deferred.
    defer: bool,
}

struct Codegen<'l> {
    l: &'l LProgram,
    /// Compiling the region-level statements of a plain region: the
    /// globals the region writes ([`written_by`]). Its barriers are
    /// deferred, and a statement that [`needs`] one settles it first.
    level: Option<Vec<bool>>,
}

impl<'l> Codegen<'l> {
    /// The code nested in a construct: a worksharing loop's, `single`'s
    /// or `critical`'s body runs where barriers are not deferred.
    fn plain(&self) -> Codegen<'l> {
        Codegen {
            l: self.l,
            level: None,
        }
    }

    fn block(&self, stmts: &[LStmt]) -> StmtFn {
        let mut stmts: Vec<StmtFn> = stmts.iter().map(|s| self.stmt(s)).collect();
        match stmts.len() {
            0 => stmt(|_, _, _| Flow::Normal),
            1 => stmts.pop().expect("one statement"),
            _ => stmt(move |cx, ex, fp| {
                for s in &stmts {
                    if let ret @ Flow::Ret(_) = s(cx, ex, fp) {
                        return ret;
                    }
                }
                Flow::Normal
            }),
        }
    }

    fn stmt(&self, s: &LStmt) -> StmtFn {
        let f = self.unsettled(s);
        match &self.level {
            Some(written) if needs(s, written) => stmt(move |cx, ex, fp| {
                settle(cx, ex);
                f(cx, ex, fp)
            }),
            _ => f,
        }
    }

    fn unsettled(&self, s: &LStmt) -> StmtFn {
        match s {
            LStmt::SetLocal {
                slot, trunc, val, ..
            } => {
                let slot = *slot as usize;
                if *trunc {
                    self.assign(val, ToSlot::<true>(slot))
                } else {
                    self.assign(val, ToSlot::<false>(slot))
                }
            }
            LStmt::SetGlobal {
                gid,
                trunc,
                val,
                span,
            } => {
                let (gid, span, val) = (*gid, *span, self.expr(val).stored(*trunc));
                stmt(move |cx, ex, fp| {
                    let v = val(cx, ex, fp);
                    let GSlot::Scalar(s) = cx.globals[gid as usize] else {
                        unreachable!("SetGlobal on array");
                    };
                    s.set(ex.tmk(), v);
                    note_access(cx, ex, gid, None, true, span);
                    Flow::Normal
                })
            }
            LStmt::SetElem {
                gid,
                trunc,
                idx,
                val,
                span,
            } => {
                let (gid, span) = (*gid, *span);
                let (idx, val) = (self.expr(idx).into_fn(), self.expr(val).stored(*trunc));
                stmt(move |cx, ex, fp| {
                    let i = idx(cx, ex, fp);
                    let v = val(cx, ex, fp);
                    let GSlot::Array(a) = cx.globals[gid as usize] else {
                        unreachable!("SetElem on scalar");
                    };
                    let i = check_index(cx, gid, i, a.len(), span);
                    ex.tmk().write(&a, i, v);
                    note_access(cx, ex, gid, Some(i), true, span);
                    Flow::Normal
                })
            }
            LStmt::If { cond, then_, else_ } => {
                let (cond, then_) = (self.expr(cond).into_fn(), self.block(then_));
                if else_.is_empty() {
                    return stmt(move |cx, ex, fp| {
                        if cond(cx, ex, fp) != 0.0 {
                            then_(cx, ex, fp)
                        } else {
                            Flow::Normal
                        }
                    });
                }
                let else_ = self.block(else_);
                stmt(move |cx, ex, fp| {
                    if cond(cx, ex, fp) != 0.0 {
                        then_(cx, ex, fp)
                    } else {
                        else_(cx, ex, fp)
                    }
                })
            }
            LStmt::While { cond, body } => {
                let settles = self.level.as_ref().is_some_and(|w| reads(cond, w));
                let (cond, body) = (self.expr(cond).into_fn(), self.block(body));
                if settles {
                    // The body's barrier settles before the next test.
                    return stmt(move |cx, ex, fp| loop {
                        settle(cx, ex);
                        if cond(cx, ex, fp) == 0.0 {
                            return Flow::Normal;
                        }
                        if let ret @ Flow::Ret(_) = body(cx, ex, fp) {
                            return ret;
                        }
                    });
                }
                stmt(move |cx, ex, fp| {
                    while cond(cx, ex, fp) != 0.0 {
                        if let ret @ Flow::Ret(_) = body(cx, ex, fp) {
                            return ret;
                        }
                    }
                    Flow::Normal
                })
            }
            LStmt::Return(None) => stmt(|_, _, _| Flow::Ret(0.0)),
            LStmt::Return(Some(e)) => {
                let e = self.expr(e).into_fn();
                stmt(move |cx, ex, fp| Flow::Ret(e(cx, ex, fp)))
            }
            LStmt::Expr(e) => {
                let e = self.expr(e).into_fn();
                stmt(move |cx, ex, fp| {
                    e(cx, ex, fp);
                    Flow::Normal
                })
            }
            LStmt::Print(parts) => {
                let parts: Vec<PrintPart> = parts
                    .iter()
                    .map(|p| match p {
                        LPrint::Str(s) => PrintPart::Str(s.clone()),
                        LPrint::Val(e) => PrintPart::Val(self.expr(e).into_fn()),
                    })
                    .collect();
                stmt(move |cx, ex, fp| {
                    let mut line = String::new();
                    for p in &parts {
                        match p {
                            PrintPart::Str(s) => line.push_str(s),
                            PrintPart::Val(e) => line.push_str(&fmt_val(e(cx, ex, fp))),
                        }
                    }
                    cx.lines.push(line);
                    Flow::Normal
                })
            }
            LStmt::Parallel { region } => {
                let rid = *region as usize;
                stmt(move |cx, ex, fp| {
                    fork_region(cx, ex, fp, rid);
                    Flow::Normal
                })
            }
            LStmt::WsFor(w) => {
                let site = WsSite {
                    loop_idx: w.loop_idx as usize,
                    span: w.span,
                    var: w.var as usize,
                    lo: self.expr(&w.lo).into_fn(),
                    hi: self.expr(&w.hi).into_fn(),
                    body: self.plain().block(&w.body),
                    reds: w.reds.clone(),
                    barrier_after: w.barrier_after,
                    reset_after: w.reset_after,
                    defer: self.level.is_some(),
                };
                stmt(move |cx, ex, fp| {
                    ws_for(cx, ex, fp, &site);
                    Flow::Normal
                })
            }
            LStmt::Single { body, .. } => {
                let (body, defer) = (self.plain().block(body), self.level.is_some());
                stmt(move |cx, ex, fp| {
                    if ex.thread_id() == 0 {
                        let flow = body(cx, ex, fp);
                        debug_assert!(matches!(flow, Flow::Normal));
                    }
                    // Implied barrier (two-level on SMP topologies).
                    barrier(cx, ex, defer);
                    Flow::Normal
                })
            }
            LStmt::Critical { lock, body, .. } => {
                let (lock, ups) = (*lock, crate::accum::lowered(self.l, body));
                let body = self.plain().block(body);
                if let Some(ups) = ups {
                    return self.accumulating(lock, body, ups);
                }
                stmt(move |cx, ex, fp| {
                    // In a sequential section only the master runs — no
                    // contention is possible, so the lock is elided. The guard
                    // frees the node gate on unwind, so a translated-program
                    // runtime panic inside the section cannot wedge an SMP node.
                    let seq = ex.is_master_seq();
                    let txn = (!seq).then(|| ex.th().enter_critical(lock));
                    if !seq {
                        if let Some(m) = &cx.mon {
                            m.acquire(ex.thread_id(), lock);
                        }
                    }
                    let flow = body(cx, ex, fp);
                    if !seq {
                        if let Some(m) = &cx.mon {
                            m.release(ex.thread_id(), lock);
                        }
                        ex.th().exit_critical(lock);
                    }
                    drop(txn);
                    debug_assert!(matches!(flow, Flow::Normal));
                    Flow::Normal
                })
            }
            LStmt::Barrier(_) => {
                let defer = self.level.is_some();
                stmt(move |cx, ex, _| {
                    barrier(cx, ex, defer);
                    Flow::Normal
                })
            }
            LStmt::Task { site } => {
                let site = *site as u64;
                let caps: Vec<usize> = self.l.tasks[site as usize]
                    .caps
                    .iter()
                    .map(|&s| s as usize)
                    .collect();
                stmt(move |cx, ex, fp| {
                    let mut words = [0u64; 3];
                    for (w, &slot) in words.iter_mut().zip(&caps) {
                        *w = cx.stack[fp + slot].to_bits();
                    }
                    // The spawn edge must be published before the task can
                    // start on another thread.
                    if let Some(m) = &cx.mon {
                        m.task_spawned(ex.thread_id());
                    }
                    ex.spawn(TaskArgs {
                        a: site,
                        b: words[0],
                        c: words[1],
                        d: words[2],
                    });
                    Flow::Normal
                })
            }
            LStmt::Taskwait => stmt(|cx, ex, _| {
                ex.taskwait();
                if let Some(m) = &cx.mon {
                    m.taskwait(ex.thread_id());
                }
                Flow::Normal
            }),
        }
    }

    /// A `critical` section that only accumulates ([`crate::accum`]):
    /// in parallel context it takes no lock and adds each update's `e`
    /// into the thread's accumulator; in sequential context it runs
    /// `body`, writing the globals directly. The race monitor still sees
    /// the section's lock, so checked runs order what they ordered
    /// before.
    fn accumulating(&self, lock: u32, body: StmtFn, ups: Vec<(usize, LExpr)>) -> StmtFn {
        let ups: Vec<(usize, RedOp, ExprFn)> = (ups.into_iter())
            .map(|(k, add)| (k, self.l.accums[k].op, self.expr(&add).into_fn()))
            .collect();
        stmt(move |cx, ex, fp| {
            if ex.is_master_seq() {
                return body(cx, ex, fp);
            }
            if let Some(m) = &cx.mon {
                m.acquire(ex.thread_id(), lock);
            }
            for (k, op, add) in &ups {
                let v = add(cx, ex, fp);
                accumulate(*k, *op, v);
            }
            if let Some(m) = &cx.mon {
                m.release(ex.thread_id(), lock);
            }
            Flow::Normal
        })
    }

    /// `val`, delivered to `k`.
    fn assign<K: Sink>(&self, val: &LExpr, k: K) -> K::Out {
        if let LExpr::Bin(op, a, b, span) = val {
            return self.bin(*op, self.expr(a), self.expr(b), *span, k);
        }
        match self.expr(val) {
            Opnd::Num(v) => k.constant(v),
            Opnd::Local(s) => k.closure(move |cx, _, fp| cx.stack[fp + s]),
            Opnd::Expr(e) => k.closure(e),
        }
    }

    fn expr(&self, e: &LExpr) -> Opnd {
        match e {
            LExpr::Num(v) => Opnd::Num(*v),
            LExpr::Local(slot) => Opnd::Local(*slot as usize),
            LExpr::Global(gid, span) => {
                let (gid, span) = (*gid, *span);
                Opnd::Expr(expr(move |cx, ex, _| {
                    let GSlot::Scalar(s) = cx.globals[gid as usize] else {
                        unreachable!("scalar read of array");
                    };
                    let v = s.get(ex.tmk());
                    note_access(cx, ex, gid, None, false, span);
                    v
                }))
            }
            LExpr::Elem(gid, idx, span) => {
                let (gid, span, idx) = (*gid, *span, self.expr(idx).into_fn());
                Opnd::Expr(expr(move |cx, ex, fp| {
                    let i = idx(cx, ex, fp);
                    let GSlot::Array(a) = cx.globals[gid as usize] else {
                        unreachable!("indexed read of scalar");
                    };
                    let i = check_index(cx, gid, i, a.len(), span);
                    let v = ex.tmk().read(&a, i);
                    note_access(cx, ex, gid, Some(i), false, span);
                    v
                }))
            }
            LExpr::Un(op, a) => match (op, self.expr(a)) {
                (UnOp::Neg, Opnd::Num(v)) => Opnd::Num(-v),
                (UnOp::Not, Opnd::Num(v)) => Opnd::Num(truth(v == 0.0)),
                (UnOp::Neg, a) => {
                    let a = a.into_fn();
                    Opnd::Expr(expr(move |cx, ex, fp| -a(cx, ex, fp)))
                }
                (UnOp::Not, a) => {
                    let a = a.into_fn();
                    Opnd::Expr(expr(move |cx, ex, fp| truth(a(cx, ex, fp) == 0.0)))
                }
            },
            LExpr::Bin(..) => self.assign(e, AsOpnd),
            LExpr::Call(fid, args, span) => {
                let f = &self.l.funcs[*fid as usize];
                let (fid, frame, span) = (*fid as usize, f.frame, *span);
                let args: Vec<ExprFn> = args
                    .iter()
                    .zip(&f.param_trunc)
                    .map(|(a, &trunc)| self.expr(a).stored(trunc))
                    .collect();
                Opnd::Expr(expr(move |cx, ex, fp| {
                    // The callee's frame goes on top of the stack before
                    // its arguments are evaluated, so a call among them
                    // pushes (and pops) above it.
                    let base = cx.stack.len();
                    cx.stack.resize(base + frame, 0.0);
                    for (i, a) in args.iter().enumerate() {
                        let v = a(cx, ex, fp);
                        cx.stack[base + i] = v;
                    }
                    cx.depth += 1;
                    if cx.depth > MAX_CALL_DEPTH {
                        panic!(
                            "ompc runtime error at line {span}: call depth exceeded \
                             {MAX_CALL_DEPTH} calling `{}` (runaway recursion?)",
                            cx.code.l.funcs[fid].name
                        );
                    }
                    let code = cx.code;
                    let ret = match code.funcs[fid](cx, ex, base) {
                        Flow::Ret(v) => v,
                        Flow::Normal => 0.0,
                    };
                    cx.depth -= 1;
                    cx.stack.truncate(base);
                    ret
                }))
            }
            LExpr::Builtin(b, args) => Opnd::Expr(self.builtin(*b, args)),
        }
    }

    fn bin<K: Sink>(&self, op: BinOp, a: Opnd, b: Opnd, span: Span, k: K) -> K::Out {
        match op {
            BinOp::Add => shapes(a, b, k, |x, y| x + y),
            BinOp::Sub => shapes(a, b, k, |x, y| x - y),
            BinOp::Mul => shapes(a, b, k, |x, y| x * y),
            BinOp::Div => shapes(a, b, k, |x, y| x / y),
            BinOp::Mod => match (&a, &b) {
                // A constant zero divisor is the program's runtime error,
                // not the compiler's: raise it when the operation runs.
                (&Opnd::Num(x), &Opnd::Num(y)) if y.trunc() as i64 == 0 => {
                    k.closure(move |_, _, _| modulo(x, y, span))
                }
                _ => shapes(a, b, k, move |x, y| modulo(x, y, span)),
            },
            BinOp::Eq => shapes(a, b, k, |x, y| truth(x == y)),
            BinOp::Ne => shapes(a, b, k, |x, y| truth(x != y)),
            BinOp::Lt => shapes(a, b, k, |x, y| truth(x < y)),
            BinOp::Le => shapes(a, b, k, |x, y| truth(x <= y)),
            BinOp::Gt => shapes(a, b, k, |x, y| truth(x > y)),
            BinOp::Ge => shapes(a, b, k, |x, y| truth(x >= y)),
            BinOp::And | BinOp::Or => {
                let and = op == BinOp::And;
                if let (Opnd::Num(x), Opnd::Num(y)) = (&a, &b) {
                    let (x, y) = (*x != 0.0, *y != 0.0);
                    return k.constant(truth(if and { x && y } else { x || y }));
                }
                let (a, b) = (a.into_fn(), b.into_fn());
                if and {
                    k.closure(move |cx, ex, fp| truth(a(cx, ex, fp) != 0.0 && b(cx, ex, fp) != 0.0))
                } else {
                    k.closure(move |cx, ex, fp| truth(a(cx, ex, fp) != 0.0 || b(cx, ex, fp) != 0.0))
                }
            }
        }
    }

    fn builtin(&self, b: Builtin, args: &[LExpr]) -> ExprFn {
        let math = |f: fn(f64) -> f64| {
            let a = self.expr(&args[0]).into_fn();
            expr(move |cx, ex, fp| f(a(cx, ex, fp)))
        };
        match b {
            Builtin::Sqrt => math(f64::sqrt),
            Builtin::Fabs => math(f64::abs),
            Builtin::Floor => math(f64::floor),
            Builtin::Sin => math(f64::sin),
            Builtin::Cos => math(f64::cos),
            Builtin::Exp => math(f64::exp),
            Builtin::ThreadNum => expr(|_, ex, _| ex.thread_id() as f64),
            Builtin::NumThreads => expr(|_, ex, _| {
                if ex.is_master_seq() {
                    1.0
                } else {
                    ex.total_procs() as f64
                }
            }),
            Builtin::NumProcs => expr(|_, ex, _| ex.total_procs() as f64),
            Builtin::Wtime => expr(|_, ex, _| ex.tmk().now_ns() as f64 / 1e9),
        }
    }
}

fn ws_for(cx: &mut Icx<'_>, ex: &mut Exec<'_, '_, '_>, fp: usize, w: &WsSite) {
    // Copy the slice reference out of `cx` so the loop-site borrow does
    // not pin `cx` across the bound evaluations below.
    let loops = cx.loops;
    let (sched, shared) = &loops[w.loop_idx];
    let (sched, shared) = (*sched, shared.as_ref());
    let lo = (w.lo)(cx, ex, fp).trunc();
    let hi = (w.hi)(cx, ex, fp).trunc();
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
        cx.stack[fp + red.slot as usize] = f64::identity(red.site.op);
    }
    let mut cursor = LoopCursor::new();
    while let Some(r) = plan.next_chunk(ex.th(), &mut cursor) {
        for i in r {
            cx.stack[fp + w.var] = i as f64;
            let flow = (w.body)(cx, ex, fp);
            debug_assert!(matches!(flow, Flow::Normal), "return escaped a loop");
        }
    }
    for red in &w.reds {
        combine_red(ex, cx.globals, red.site, cx.stack[fp + red.slot as usize]);
    }
    if w.barrier_after {
        // The implied end-of-worksharing barrier (two-level on SMP).
        barrier(cx, ex, w.defer);
    }
    if w.reset_after {
        if let Some(sh) = shared {
            // The region may run this loop again: reset the shared loop
            // state behind the implied barrier, and fence the reset so
            // no thread can re-enter early. (Adaptive rate history and
            // affinity partition identity survive the reset — that is
            // the cross-execution history those policies exploit.)
            settle(cx, ex);
            if ex.thread_id() == 0 {
                sh.reset(ex.tmk());
            }
            barrier(cx, ex, w.defer);
        }
    }
}

/// A barrier, explicit or implied: at a plain region's level it is left
/// pending for [`settle`], and one already pending orders the same
/// accesses (DESIGN.md §2j); anywhere else it runs here.
fn barrier(cx: &mut Icx<'_>, ex: &mut Exec<'_, '_, '_>, defer: bool) {
    if defer {
        cx.pending = true;
    } else {
        mon_barrier(cx, ex);
    }
}

/// The globals the statements of a plain region write, by index: every
/// global if the region calls a function, which may write any of them.
/// An interior loop's reduction writes its variable.
fn written_by(l: &LProgram, body: &[LStmt]) -> Vec<bool> {
    let mut written = vec![false; l.globals.len()];
    let mut calls = false;
    visit_stmts(body, &mut |s| {
        match s {
            LStmt::SetGlobal { gid, .. } | LStmt::SetElem { gid, .. } => {
                written[*gid as usize] = true;
            }
            LStmt::WsFor(w) => (w.reds.iter()).for_each(|r| written[r.site.gid as usize] = true),
            _ => {}
        }
        let call = |e: &LExpr| matches!(e, LExpr::Call(..)).then_some(true);
        calls = calls || s.exprs().any(|e| e.any(&call));
    });
    if calls {
        written.fill(true);
    }
    written
}

/// Must a barrier still pending run before region-level statement `s`?
/// Yes if `s`, counting its condition and nested blocks, writes a
/// global, reads one the region writes, calls a function, spawns,
/// prints or reads the clock, or is a construct of its own. Every other
/// statement touches only the thread's private slots and globals no
/// thread of the region writes, which a barrier does not order.
fn needs(s: &LStmt, written: &[bool]) -> bool {
    match s {
        LStmt::SetGlobal { .. }
        | LStmt::SetElem { .. }
        | LStmt::Print(_)
        | LStmt::Parallel { .. }
        | LStmt::WsFor(_)
        | LStmt::Single { .. }
        | LStmt::Critical { .. }
        | LStmt::Task { .. }
        | LStmt::Taskwait => true,
        LStmt::SetLocal { .. }
        | LStmt::If { .. }
        | LStmt::While { .. }
        | LStmt::Return(_)
        | LStmt::Expr(_)
        | LStmt::Barrier(_) => {
            s.exprs().any(|e| reads(e, written)) || s.blocks().flatten().any(|s| needs(s, written))
        }
    }
}

/// Does evaluating `e` read a global the region writes, call a function
/// or read the clock?
fn reads(e: &LExpr, written: &[bool]) -> bool {
    e.any(&|e| match e {
        LExpr::Global(gid, _) => Some(written[*gid as usize]),
        LExpr::Elem(gid, ..) if written[*gid as usize] => Some(true),
        LExpr::Call(..) | LExpr::Builtin(Builtin::Wtime, _) => Some(true),
        _ => None,
    })
}

//! The lowered, name-resolved IR the analyzer reads and [`crate::codegen`]
//! compiles to closures.
//!
//! Produced by [`crate::sema`]. Every variable reference is resolved to
//! either a *private frame slot* (`Local`) or a *shared DSM global*
//! (`Global`/`Elem`) — the paper's Modification 1 made explicit in the
//! instruction set: there is no way to express a shared stack variable.
//!
//! [`LExpr::for_each_operand`], [`LStmt::exprs`] and [`LStmt::blocks`]
//! are the only enumeration of a node's children outside `codegen`: the
//! analyzer's and `sema`'s walks are folds over them, so a new variant is
//! listed here once and every pass sees its children.

use crate::ast::{BinOp, SchedKind, UnOp};
use crate::diag::Span;
use nomp::RedOp;

#[derive(Debug)]
pub(crate) struct LProgram {
    pub globals: Vec<LGlobal>,
    pub funcs: Vec<LFunc>,
    pub regions: Vec<LRegion>,
    pub tasks: Vec<LTask>,
    pub main_fn: usize,
    /// Globals whose every update in parallel context is a `critical`
    /// that only accumulates into them ([`crate::accum`]): those
    /// sections run without their lock and the sums ride the join.
    pub accums: Vec<JoinSite>,
}

#[derive(Debug)]
pub(crate) struct LGlobal {
    pub name: String,
    /// `int`-declared: C-style truncation on store.
    pub trunc: bool,
    pub kind: LGlobalKind,
    pub span: Span,
}

#[derive(Debug)]
pub(crate) enum LGlobalKind {
    Scalar { init: Option<LExpr> },
    Array { len: LExpr },
}

#[derive(Debug)]
pub(crate) struct LFunc {
    /// Source name (diagnostics from the analyzer name functions).
    pub name: String,
    /// Private frame slots (params + all locals).
    pub frame: usize,
    /// Parameter slots are 0..params.len(); `trunc` per parameter.
    pub param_trunc: Vec<bool>,
    pub body: Vec<LStmt>,
}

/// An outlined parallel region (the paper's region-outlining pass).
#[derive(Debug)]
pub(crate) struct LRegion {
    pub body: Vec<LStmt>,
    /// Frame size of the enclosing function; the whole frame is shipped
    /// as the firstprivate environment (modeled in the fork payload).
    pub frame: usize,
    /// Work-shared loops in this region, in `loop_idx` order; the master
    /// resolves schedules and pre-allocates shared chunk counters at
    /// fork time.
    pub loops: Vec<LSched>,
    /// Region-level `reduction` clauses (on `parallel` itself, or on a
    /// combined `parallel for`): they ride the region's join.
    pub reds: Vec<RedSite>,
    /// The [`LProgram::accums`] sites this region's threads reach
    /// (through calls and tasks too), ascending: each thread contributes
    /// every one at the region's end, after its tasks.
    pub accums: Vec<u16>,
    /// A `task`/`taskwait` is reachable from this region (lexically or
    /// through called functions): run it as a distributed task scope.
    pub uses_tasks: bool,
    /// Span of the `#pragma omp parallel [for]` directive.
    pub span: Span,
    /// Frame slots rebound from shared globals by `private`/
    /// `firstprivate` clauses anywhere in this region — each thread's
    /// copy diverges, so a value flowing from one of these slots back
    /// into shared storage is thread-dependent (the analyzer's
    /// private-escape check).
    pub privatized: Vec<u16>,
}

/// An outlined `task` construct.
#[derive(Debug)]
pub(crate) struct LTask {
    pub body: Vec<LStmt>,
    /// Enclosing-function frame slots captured firstprivate into the
    /// 32-byte task descriptor (at most [`crate::MAX_TASK_CAPTURES`]).
    pub caps: Vec<u16>,
    /// Frame size of the enclosing function.
    pub frame: usize,
    /// Span of the `#pragma omp task` directive.
    pub span: Span,
}

#[derive(Debug, Clone, Copy)]
pub(crate) struct LSched {
    pub kind: SchedKind,
    /// 0 = unspecified (dynamic falls back to the configured default).
    pub chunk: usize,
}

/// One reduction variable at one construct: the shared global it folds
/// into and the private accumulator slot that feeds it.
#[derive(Debug, Clone, Copy)]
pub(crate) struct RedSite {
    pub site: JoinSite,
    pub slot: u16,
    /// Span of the variable in the `reduction(op:v)` clause.
    pub span: Span,
}

/// A shared scalar that threads fold into with `op`. `key` is the
/// site's runtime id: the key of its node partials at a region's join,
/// where the master folds them into `gid`, and the lock serializing an
/// interior loop's combine.
#[derive(Debug, Clone, Copy)]
pub(crate) struct JoinSite {
    pub op: RedOp,
    pub gid: u16,
    pub trunc: bool,
    pub key: u32,
}

#[derive(Debug, Clone)]
pub(crate) enum LExpr {
    Num(f64),
    Local(u16),
    Global(u16, Span),
    Elem(u16, Box<LExpr>, Span),
    Un(UnOp, Box<LExpr>),
    /// The span is the operator's (runtime errors: `%` by zero).
    Bin(BinOp, Box<LExpr>, Box<LExpr>, Span),
    /// The span is the call's (runtime errors: call depth).
    Call(u16, Vec<LExpr>, Span),
    Builtin(Builtin, Vec<LExpr>),
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Builtin {
    Sqrt,
    Fabs,
    Floor,
    Sin,
    Cos,
    Exp,
    ThreadNum,
    NumThreads,
    NumProcs,
    Wtime,
}

#[derive(Debug)]
pub(crate) enum LStmt {
    SetLocal {
        slot: u16,
        trunc: bool,
        val: LExpr,
        span: Span,
    },
    SetGlobal {
        gid: u16,
        trunc: bool,
        val: LExpr,
        span: Span,
    },
    SetElem {
        gid: u16,
        trunc: bool,
        idx: LExpr,
        val: LExpr,
        span: Span,
    },
    If {
        cond: LExpr,
        then_: Vec<LStmt>,
        else_: Vec<LStmt>,
    },
    While {
        cond: LExpr,
        body: Vec<LStmt>,
    },
    Return(Option<LExpr>),
    Expr(LExpr),
    Print(Vec<LPrint>),
    /// Fork the outlined region on every workstation.
    Parallel {
        region: u16,
    },
    /// A work-shared loop inside a region.
    WsFor(Box<WsFor>),
    Single {
        body: Vec<LStmt>,
        span: Span,
    },
    Critical {
        lock: u32,
        body: Vec<LStmt>,
        /// Source name of the named critical (`None` = the unnamed one).
        name: Option<String>,
        span: Span,
    },
    Barrier(Span),
    /// Spawn task `site`, capturing the listed frame slots by value.
    Task {
        site: u16,
    },
    Taskwait,
}

#[derive(Debug)]
pub(crate) enum LPrint {
    Str(String),
    Val(LExpr),
}

#[derive(Debug)]
pub(crate) struct WsFor {
    /// Index into the owning region's `loops` table.
    pub loop_idx: u16,
    /// Span of the loop header.
    pub span: Span,
    /// Private loop-variable slot.
    pub var: u16,
    pub lo: LExpr,
    pub hi: LExpr,
    pub body: Vec<LStmt>,
    /// An interior `omp for`'s reductions, combined under their locks
    /// before the loop's barrier (empty on a combined `parallel for`,
    /// whose reductions are the region's).
    pub reds: Vec<RedSite>,
    /// Interior `omp for`: run the implied end-of-loop barrier (combined
    /// `parallel for` relies on the region join instead).
    pub barrier_after: bool,
    /// Interior loops also reset their shared chunk counter so the region
    /// can execute the loop again (costs one extra barrier).
    pub reset_after: bool,
}

impl LExpr {
    /// Call `f` on each direct operand, in evaluation order. Internal
    /// iteration, not an iterator: the region walker recurses through
    /// this once per node, where a closure call inlines and a returned
    /// iterator chain measurably did not.
    pub(crate) fn for_each_operand<'a>(&'a self, mut f: impl FnMut(&'a LExpr)) {
        match self {
            LExpr::Num(_) | LExpr::Local(_) | LExpr::Global(..) => {}
            LExpr::Elem(_, a, _) | LExpr::Un(_, a) => f(a),
            LExpr::Bin(_, a, b, _) => {
                f(a);
                f(b);
            }
            LExpr::Call(_, args, _) | LExpr::Builtin(_, args) => args.iter().for_each(f),
        }
    }

    /// Every node of this expression, pre-order.
    pub(crate) fn visit<'a, F: FnMut(&'a LExpr)>(&'a self, f: &mut F) {
        f(self);
        self.for_each_operand(|o| o.visit(f));
    }

    /// Does some node satisfy `probe`? `probe` answers `Some(verdict)`
    /// for a node it can judge without its operands (the walk does not
    /// descend there), `None` to look at the operands instead.
    pub(crate) fn any<P: Fn(&LExpr) -> Option<bool>>(&self, probe: &P) -> bool {
        probe(self).unwrap_or_else(|| {
            let mut hit = false;
            self.for_each_operand(|o| hit = hit || o.any(probe));
            hit
        })
    }
}

impl LStmt {
    /// The expressions this statement evaluates itself (not those of
    /// its nested blocks), in evaluation order.
    pub(crate) fn exprs(&self) -> impl Iterator<Item = &LExpr> {
        let (one, two, parts): (Option<&LExpr>, Option<&LExpr>, &[LPrint]) = match self {
            LStmt::SetLocal { val, .. } | LStmt::SetGlobal { val, .. } | LStmt::Expr(val) => {
                (Some(val), None, &[])
            }
            LStmt::SetElem { idx, val, .. } => (Some(idx), Some(val), &[]),
            LStmt::If { cond, .. } | LStmt::While { cond, .. } => (Some(cond), None, &[]),
            LStmt::Return(v) => (v.as_ref(), None, &[]),
            LStmt::Print(parts) => (None, None, parts),
            LStmt::WsFor(w) => (Some(&w.lo), Some(&w.hi), &[]),
            LStmt::Parallel { .. }
            | LStmt::Single { .. }
            | LStmt::Critical { .. }
            | LStmt::Barrier(_)
            | LStmt::Task { .. }
            | LStmt::Taskwait => (None, None, &[]),
        };
        let vals = parts.iter().filter_map(|p| match p {
            LPrint::Val(e) => Some(e),
            LPrint::Str(_) => None,
        });
        one.into_iter().chain(two).chain(vals)
    }

    /// The statement blocks nested directly in this statement. Region
    /// and task bodies are outlined, so `Parallel` and `Task` have none.
    pub(crate) fn blocks(&self) -> impl Iterator<Item = &[LStmt]> {
        let (one, two): (&[LStmt], &[LStmt]) = match self {
            LStmt::If { then_, else_, .. } => (then_, else_),
            LStmt::While { body, .. }
            | LStmt::Single { body, .. }
            | LStmt::Critical { body, .. } => (body, &[]),
            LStmt::WsFor(w) => (&w.body, &[]),
            LStmt::SetLocal { .. }
            | LStmt::SetGlobal { .. }
            | LStmt::SetElem { .. }
            | LStmt::Return(_)
            | LStmt::Expr(_)
            | LStmt::Print(_)
            | LStmt::Parallel { .. }
            | LStmt::Barrier(_)
            | LStmt::Task { .. }
            | LStmt::Taskwait => (&[], &[]),
        };
        [one, two].into_iter()
    }
}

/// Every statement of `stmts` and of the blocks nested in them, pre-order.
pub(crate) fn visit_stmts<'a, F: FnMut(&'a LStmt)>(stmts: &'a [LStmt], f: &mut F) {
    for s in stmts {
        f(s);
        for b in s.blocks() {
            visit_stmts(b, f);
        }
    }
}

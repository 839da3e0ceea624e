//! Semantic analysis and lowering: name resolution, the paper's
//! shared/private classification (Modification 1), directive legality
//! checks, and outlining of parallel regions and tasks.
//!
//! Classification rules:
//!
//! * **Globals are shared.** File-scope variables live in DSM space
//!   (`SharedScalar`/`SharedVec` at run time). `private(g)` /
//!   `firstprivate(g)` / `reduction(op:g)` clauses rebind a global to a
//!   private frame slot inside the construct.
//! * **Everything on the stack is private.** Function locals and
//!   parameters are frame slots; a parallel region ships a copy of the
//!   enclosing frame as its firstprivate environment. `shared(x)` on a
//!   stack variable is a compile error — there is no way to share a
//!   stack variable on a DSM (the paper's Modification 1).
//! * **Directive context is checked over the call graph.** `task`,
//!   `taskwait` and `barrier` may be orphaned (appear in functions
//!   called from parallel regions) but are errors in any function
//!   reachable from sequential context; `for`/`single` must be lexically
//!   inside a `parallel`; `parallel` may not nest.

use crate::ast::{
    self, Clause, Dir, Expr, ForLoop, GlobalKind, Program, RedKind, Stmt, Target, Ty,
};
use crate::diag::{Diag, Span};
use crate::ir::*;
use crate::MAX_TASK_CAPTURES;
use nomp::RedOp;
use std::collections::HashMap;

/// First lock id used for reduction combines (below the named-critical
/// range, above application locks).
const OMPC_LOCK_BASE: u32 = 0x4000_0000;

pub(crate) fn lower(prog: &Program) -> Result<LProgram, Diag> {
    Sema::new(prog)?.run()
}

#[derive(Clone, Copy)]
struct GInfo {
    gid: u16,
    trunc: bool,
    array: bool,
}

#[derive(Clone, Copy)]
struct LocalVar {
    slot: u16,
    trunc: bool,
}

/// The `sync_ctx` label of a critical section — compared against to
/// apply the critical-only nesting restrictions (`taskwait`).
const CRITICAL_CTX: &str = "a `critical` section";

/// What a name resolves to at a use site.
enum Resolved {
    Local(LocalVar),
    GlobalScalar(GInfo),
    GlobalArray(GInfo),
}

#[derive(Default)]
struct FnInfo {
    /// Callees invoked from sequential-lexical positions.
    seq_calls: Vec<usize>,
    /// Callees invoked from inside parallel constructs or task bodies.
    par_calls: Vec<usize>,
    /// `task`/`taskwait`/`barrier` at sequential-lexical positions
    /// (legal only if this function never runs in sequential context).
    seq_directives: Vec<(Span, &'static str)>,
    /// Spans of `parallel` constructs (illegal if this function ever
    /// runs inside a parallel region).
    parallel_spans: Vec<Span>,
    /// Contains a `task`/`taskwait` construct anywhere in its body, so
    /// executing it (in parallel context) may need a task scope.
    has_task_like: bool,
    /// Contains a `barrier` anywhere in its body — illegal to call from
    /// inside a work-shared loop, `single` or `critical` (the barrier
    /// would not be reached by every thread).
    has_barrier: bool,
    /// Contains a `taskwait` anywhere in its body — illegal to call from
    /// inside a `critical` section (the waiter blocks holding the lock
    /// while an unfinished task may need it; on an SMP node it also
    /// pins the node's protocol gate).
    has_taskwait: bool,
}

struct Sema<'p> {
    ast: &'p Program,
    globals: Vec<LGlobal>,
    gmap: HashMap<String, GInfo>,
    fids: HashMap<String, usize>,
    arities: Vec<usize>,
    regions: Vec<LRegion>,
    tasks: Vec<LTask>,
    fninfos: Vec<FnInfo>,
    /// Per-region (aligned with `regions`): did the region lexically
    /// contain task/taskwait, and which functions does it call — used to
    /// resolve [`LRegion::uses_tasks`] once every body is lowered.
    region_aux: Vec<(bool, Vec<usize>)>,
    /// Calls made from inside a work-shared loop body, `single` or
    /// `critical`: (callee, call-site span, construct name). Checked
    /// against barrier-containing callees once every body is lowered.
    sync_calls: Vec<(usize, Span, &'static str)>,
    lock_seq: u32,
}

/// Per-function lowering state.
struct FnCx {
    fid: usize,
    ret_void: bool,
    scopes: Vec<HashMap<String, LocalVar>>,
    next_slot: usize,
    /// Active global→slot rebindings (private/firstprivate/reduction).
    remap: HashMap<u16, LocalVar>,
    in_parallel: bool,
    in_task: bool,
    /// Work-shared loop schedules of the region being lowered.
    loops: Option<Vec<LSched>>,
    /// Name of the innermost enclosing work-shared loop body, `single`
    /// or `critical` (OpenMP's closely-nested-region restrictions:
    /// worksharing, `single` and `barrier` would deadlock there).
    sync_ctx: Option<&'static str>,
    /// The region being lowered lexically contains task/taskwait.
    region_tasky: bool,
    /// Functions called from inside the region being lowered.
    region_calls: Vec<usize>,
    /// Slots rebound from globals by `private`/`firstprivate` clauses
    /// inside the region being lowered (drained into
    /// [`LRegion::privatized`]).
    region_privs: Vec<u16>,
    /// When lowering a global initializer: only globals with gid below
    /// this limit exist yet, and function calls are banned.
    global_limit: Option<u16>,
}

impl FnCx {
    fn function(fid: usize, ret_void: bool) -> Self {
        FnCx {
            fid,
            ret_void,
            scopes: vec![HashMap::new()],
            next_slot: 0,
            remap: HashMap::new(),
            in_parallel: false,
            in_task: false,
            loops: None,
            sync_ctx: None,
            region_tasky: false,
            region_calls: Vec::new(),
            region_privs: Vec::new(),
            global_limit: None,
        }
    }

    fn global_init(limit: u16) -> Self {
        let mut cx = FnCx::function(usize::MAX, false);
        cx.global_limit = Some(limit);
        cx
    }

    fn lookup(&self, name: &str) -> Option<LocalVar> {
        self.scopes.iter().rev().find_map(|s| s.get(name).copied())
    }

    fn declare(&mut self, name: &str, trunc: bool, span: Span) -> Result<u16, Diag> {
        if self.scopes.last().unwrap().contains_key(name) {
            return Err(Diag::new(
                span,
                format!("`{name}` is already declared in this scope"),
            ));
        }
        let slot = self.fresh_slot(span)?;
        self.scopes
            .last_mut()
            .unwrap()
            .insert(name.to_string(), LocalVar { slot, trunc });
        Ok(slot)
    }

    fn fresh_slot(&mut self, span: Span) -> Result<u16, Diag> {
        if self.next_slot > u16::MAX as usize {
            return Err(Diag::new(span, "too many local variables"));
        }
        let slot = self.next_slot as u16;
        self.next_slot += 1;
        Ok(slot)
    }
}

impl<'p> Sema<'p> {
    fn new(ast: &'p Program) -> Result<Self, Diag> {
        Ok(Sema {
            ast,
            globals: Vec::new(),
            gmap: HashMap::new(),
            fids: HashMap::new(),
            arities: Vec::new(),
            regions: Vec::new(),
            tasks: Vec::new(),
            fninfos: Vec::new(),
            region_aux: Vec::new(),
            sync_calls: Vec::new(),
            lock_seq: OMPC_LOCK_BASE,
        })
    }

    fn next_lock(&mut self) -> u32 {
        let l = self.lock_seq;
        self.lock_seq += 1;
        l
    }

    fn run(mut self) -> Result<LProgram, Diag> {
        // Pass 1a: register every global name (so a forward reference in
        // an initializer gets a "used before its declaration" error, not
        // "unknown variable").
        for (i, g) in self.ast.globals.iter().enumerate() {
            if i > u16::MAX as usize {
                return Err(Diag::new(g.span, "too many globals"));
            }
            if self.gmap.contains_key(&g.name) {
                return Err(Diag::new(
                    g.span,
                    format!("global `{}` is already declared", g.name),
                ));
            }
            self.gmap.insert(
                g.name.clone(),
                GInfo {
                    gid: i as u16,
                    trunc: g.ty == Ty::Int,
                    array: matches!(g.kind, GlobalKind::Array(_)),
                },
            );
        }

        // Pass 2: function signatures (any declaration order works).
        for (fid, f) in self.ast.funcs.iter().enumerate() {
            if self.fids.contains_key(&f.name) {
                return Err(Diag::new(
                    f.span,
                    format!("function `{}` is already defined", f.name),
                ));
            }
            if self.gmap.contains_key(&f.name) {
                return Err(Diag::new(
                    f.span,
                    format!("`{}` is already a global variable", f.name),
                ));
            }
            self.fids.insert(f.name.clone(), fid);
            self.arities.push(f.params.len());
            self.fninfos.push(FnInfo::default());
        }
        let Some(&main_fn) = self.fids.get("main") else {
            return Err(Diag::new(Span::new(1, 1), "program has no `main` function"));
        };
        if self.arities[main_fn] != 0 {
            return Err(Diag::new(
                self.ast.funcs[main_fn].span,
                "`main` must take no parameters",
            ));
        }

        // Pass 2b: lower global initializers and array lengths in
        // declaration order — they may only use earlier globals, and may
        // not call functions (checked now that signatures are known).
        for (i, g) in self.ast.globals.iter().enumerate() {
            let mut cx = FnCx::global_init(i as u16);
            let kind = match &g.kind {
                GlobalKind::Scalar(init) => LGlobalKind::Scalar {
                    init: init
                        .as_ref()
                        .map(|e| self.lower_expr(&mut cx, e))
                        .transpose()?,
                },
                GlobalKind::Array(len) => LGlobalKind::Array {
                    len: self.lower_expr(&mut cx, len)?,
                },
            };
            self.globals.push(LGlobal {
                name: g.name.clone(),
                trunc: g.ty == Ty::Int,
                kind,
                span: g.span,
            });
        }

        // Pass 3: function bodies.
        let mut funcs = Vec::new();
        for (fid, f) in self.ast.funcs.iter().enumerate() {
            let mut cx = FnCx::function(fid, f.ty == Ty::Void);
            let mut param_trunc = Vec::new();
            for p in &f.params {
                cx.declare(&p.name, p.ty == Ty::Int, p.span)?;
                param_trunc.push(p.ty == Ty::Int);
            }
            let regions_before = self.regions.len();
            let tasks_before = self.tasks.len();
            let body = self.lower_stmts(&mut cx, &f.body)?;
            // Regions and tasks outlined from this function ship / build
            // frames of this function's final size.
            for r in &mut self.regions[regions_before..] {
                r.frame = cx.next_slot;
            }
            for t in &mut self.tasks[tasks_before..] {
                t.frame = cx.next_slot;
            }
            funcs.push(LFunc {
                name: f.name.clone(),
                frame: cx.next_slot,
                param_trunc,
                body,
            });
        }

        self.check_call_graph(main_fn)?;
        self.check_sync_context_calls()?;
        self.resolve_region_task_use();

        let mut prog = LProgram {
            globals: self.globals,
            funcs,
            regions: self.regions,
            tasks: self.tasks,
            main_fn,
            accums: Vec::new(),
        };
        crate::accum::plan(&mut prog, self.lock_seq);
        Ok(prog)
    }

    /// A function whose body (transitively) contains a `barrier` may not
    /// be called from a work-shared loop body, `single`, `critical` or a
    /// task body: not every thread would reach the barrier, deadlocking
    /// the team (OpenMP's closely-nested-region restrictions, extended
    /// over the call graph like the other context checks).
    fn check_sync_context_calls(&self) -> Result<(), Diag> {
        let barriery = self.transitive_flag(|f| f.has_barrier);
        let taskwaity = self.transitive_flag(|f| f.has_taskwait);
        for &(callee, span, ctx) in &self.sync_calls {
            if barriery[callee] {
                return Err(Diag::new(
                    span,
                    format!(
                        "function `{}` contains a `barrier` and is called from inside {ctx} (not every thread would reach the barrier)",
                        self.ast.funcs[callee].name
                    ),
                ));
            }
            if ctx == CRITICAL_CTX && taskwaity[callee] {
                return Err(Diag::new(
                    span,
                    format!(
                        "function `{}` contains a `taskwait` and is called from inside {ctx} (the waiter would block holding the lock)",
                        self.ast.funcs[callee].name
                    ),
                ));
            }
        }
        Ok(())
    }

    /// Transitive closure of a per-function flag over all call edges.
    fn transitive_flag(&self, seed: impl Fn(&FnInfo) -> bool) -> Vec<bool> {
        let n = self.fninfos.len();
        let mut flag: Vec<bool> = self.fninfos.iter().map(seed).collect();
        let mut changed = true;
        while changed {
            changed = false;
            for f in 0..n {
                if flag[f] {
                    continue;
                }
                let info = &self.fninfos[f];
                if info
                    .seq_calls
                    .iter()
                    .chain(&info.par_calls)
                    .any(|&g| flag[g])
                {
                    flag[f] = true;
                    changed = true;
                }
            }
        }
        flag
    }

    /// A region needs a task scope iff a `task`/`taskwait` is reachable
    /// from it: lexically, or through any function it (transitively)
    /// calls. Regions without reachable tasks fork as plain parallel
    /// regions and pay no deque/termination overhead.
    fn resolve_region_task_use(&mut self) {
        let spawny = self.transitive_flag(|f| f.has_task_like);
        for (region, (tasky, calls)) in self.regions.iter_mut().zip(&self.region_aux) {
            region.uses_tasks = *tasky || calls.iter().any(|&g| spawny[g]);
        }
    }

    /// Propagate execution contexts over the call graph and reject
    /// directives that could execute outside a parallel region, and
    /// parallel regions that could execute inside one.
    fn check_call_graph(&self, main_fn: usize) -> Result<(), Diag> {
        let n = self.fninfos.len();
        let mut seq = vec![false; n];
        let mut par = vec![false; n];
        seq[main_fn] = true;
        let mut changed = true;
        while changed {
            changed = false;
            for f in 0..n {
                if seq[f] {
                    for &g in &self.fninfos[f].seq_calls {
                        if !seq[g] {
                            seq[g] = true;
                            changed = true;
                        }
                    }
                    for &g in &self.fninfos[f].par_calls {
                        if !par[g] {
                            par[g] = true;
                            changed = true;
                        }
                    }
                }
                if par[f] {
                    for &g in self.fninfos[f]
                        .seq_calls
                        .iter()
                        .chain(&self.fninfos[f].par_calls)
                    {
                        if !par[g] {
                            par[g] = true;
                            changed = true;
                        }
                    }
                }
            }
        }
        for f in 0..n {
            if seq[f] {
                if let Some(&(span, dir)) = self.fninfos[f].seq_directives.first() {
                    let who = if f == main_fn {
                        "in `main`".to_string()
                    } else {
                        format!(
                            "in function `{}`, which is called from sequential context",
                            self.ast.funcs[f].name
                        )
                    };
                    return Err(Diag::new(
                        span,
                        format!("`{dir}` outside a parallel region ({who})"),
                    ));
                }
            }
            if par[f] {
                if let Some(&span) = self.fninfos[f].parallel_spans.first() {
                    return Err(Diag::new(
                        span,
                        format!(
                            "nested parallel region: function `{}` is called from \
                             within a parallel region",
                            self.ast.funcs[f].name
                        ),
                    ));
                }
            }
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // Statements
    // ------------------------------------------------------------------

    fn lower_stmts(&mut self, cx: &mut FnCx, stmts: &[Stmt]) -> Result<Vec<LStmt>, Diag> {
        let mut out = Vec::new();
        for s in stmts {
            self.lower_stmt(cx, s, &mut out)?;
        }
        Ok(out)
    }

    fn lower_scoped(&mut self, cx: &mut FnCx, stmts: &[Stmt]) -> Result<Vec<LStmt>, Diag> {
        cx.scopes.push(HashMap::new());
        let r = self.lower_stmts(cx, stmts);
        cx.scopes.pop();
        r
    }

    fn lower_stmt(&mut self, cx: &mut FnCx, s: &Stmt, out: &mut Vec<LStmt>) -> Result<(), Diag> {
        match s {
            Stmt::Decl {
                ty,
                name,
                init,
                span,
            } => {
                let val = init
                    .as_ref()
                    .map(|e| self.lower_expr(cx, e))
                    .transpose()?
                    .unwrap_or(LExpr::Num(0.0));
                let trunc = *ty == Ty::Int;
                let slot = cx.declare(name, trunc, *span)?;
                out.push(LStmt::SetLocal {
                    slot,
                    trunc,
                    val,
                    span: *span,
                });
            }
            Stmt::Assign { target, value } => {
                let val = self.lower_expr(cx, value)?;
                match target {
                    Target::Var(name, span) => match self.resolve(cx, name, *span)? {
                        Resolved::Local(v) => out.push(LStmt::SetLocal {
                            slot: v.slot,
                            trunc: v.trunc,
                            val,
                            span: *span,
                        }),
                        Resolved::GlobalScalar(g) => out.push(LStmt::SetGlobal {
                            gid: g.gid,
                            trunc: g.trunc,
                            val,
                            span: *span,
                        }),
                        Resolved::GlobalArray(_) => {
                            return Err(Diag::new(
                                *span,
                                format!("array `{name}` must be assigned through an index"),
                            ));
                        }
                    },
                    Target::Elem(name, idx, span) => {
                        let g = self.resolve_array(cx, name, *span)?;
                        let idx = self.lower_expr(cx, idx)?;
                        out.push(LStmt::SetElem {
                            gid: g.gid,
                            trunc: g.trunc,
                            idx,
                            val,
                            span: *span,
                        });
                    }
                }
            }
            Stmt::If { cond, then_, else_ } => {
                let cond = self.lower_expr(cx, cond)?;
                let then_ = self.lower_scoped(cx, then_)?;
                let else_ = self.lower_scoped(cx, else_)?;
                out.push(LStmt::If { cond, then_, else_ });
            }
            Stmt::While { cond, body } => {
                let cond = self.lower_expr(cx, cond)?;
                let body = self.lower_scoped(cx, body)?;
                out.push(LStmt::While { cond, body });
            }
            Stmt::For(fl) => {
                // Desugar: { init; while (cond) { body; step; } }
                cx.scopes.push(HashMap::new());
                let r = self.lower_seq_for(cx, fl, out);
                cx.scopes.pop();
                r?;
            }
            Stmt::Return { value, span } => {
                if cx.in_parallel || cx.in_task {
                    return Err(Diag::new(
                        *span,
                        "`return` inside a parallel construct is not supported",
                    ));
                }
                // Within a critical, only a task body can replace this
                // label without an error, and its `return` failed above.
                if cx.sync_ctx == Some(CRITICAL_CTX) {
                    return Err(Diag::new(
                        *span,
                        "`return` inside a `critical` section is not supported \
                         (it would leave the section without releasing its lock)",
                    ));
                }
                let value = value.as_ref().map(|e| self.lower_expr(cx, e)).transpose()?;
                if cx.ret_void && value.is_some() {
                    return Err(Diag::new(*span, "`void` function returns a value"));
                }
                out.push(LStmt::Return(value));
            }
            Stmt::Print { parts } => {
                let mut lp = Vec::new();
                for p in parts {
                    lp.push(match p {
                        ast::PrintPart::Str(s) => LPrint::Str(s.clone()),
                        ast::PrintPart::Expr(e) => LPrint::Val(self.lower_expr(cx, e)?),
                    });
                }
                out.push(LStmt::Print(lp));
            }
            Stmt::Expr(e) => {
                let e = self.lower_expr(cx, e)?;
                out.push(LStmt::Expr(e));
            }
            Stmt::Block(stmts) => {
                let b = self.lower_scoped(cx, stmts)?;
                out.extend(b);
            }
            Stmt::Omp(omp) => self.lower_dir(cx, omp, out)?,
        }
        Ok(())
    }

    fn lower_seq_for(
        &mut self,
        cx: &mut FnCx,
        fl: &ForLoop,
        out: &mut Vec<LStmt>,
    ) -> Result<(), Diag> {
        if let Some(init) = &fl.init {
            self.lower_stmt(cx, init, out)?;
        }
        let cond = fl
            .cond
            .as_ref()
            .map(|e| self.lower_expr(cx, e))
            .transpose()?
            .unwrap_or(LExpr::Num(1.0));
        let mut body = self.lower_scoped(cx, &fl.body)?;
        if let Some(step) = &fl.step {
            self.lower_stmt(cx, step, &mut body)?;
        }
        out.push(LStmt::While { cond, body });
        Ok(())
    }

    // ------------------------------------------------------------------
    // Directives
    // ------------------------------------------------------------------

    fn lower_dir(
        &mut self,
        cx: &mut FnCx,
        omp: &ast::OmpStmt,
        out: &mut Vec<LStmt>,
    ) -> Result<(), Diag> {
        let span = omp.span;
        match &omp.dir {
            Dir::Parallel { clauses, body } => {
                self.enter_region_checks(cx, span)?;
                self.fninfos[cx.fid].parallel_spans.push(span);
                let (prologue, reds, saved) =
                    self.apply_data_clauses(cx, clauses, span, DataCtx::Parallel)?;
                cx.in_parallel = true;
                let outer_loops = cx.loops.replace(Vec::new());
                let body_res = self.lower_scoped(cx, body);
                let loops = cx.loops.take().unwrap_or_default();
                cx.loops = outer_loops;
                cx.in_parallel = false;
                self.restore_remap(cx, saved);
                let mut rbody = prologue;
                rbody.extend(body_res?);
                let region = self.push_region(
                    LRegion {
                        body: rbody,
                        frame: 0,
                        loops,
                        reds,
                        accums: Vec::new(),
                        uses_tasks: false,
                        span,
                        privatized: Vec::new(),
                    },
                    cx,
                );
                out.push(LStmt::Parallel { region });
            }
            Dir::ParallelFor { clauses, loop_ } => {
                self.enter_region_checks(cx, span)?;
                self.fninfos[cx.fid].parallel_spans.push(span);
                let sched = extract_schedule(clauses)?;
                let (prologue, reds, saved) =
                    self.apply_data_clauses(cx, clauses, span, DataCtx::ParallelFor)?;
                cx.in_parallel = true;
                let outer_loops = cx.loops.replace(vec![sched]);
                // The combined construct's reductions are the region's:
                // they ride its join, not the loop's lock.
                let ws = self.lower_ws_loop(cx, loop_, 0, Vec::new(), false, false);
                cx.loops = outer_loops;
                cx.in_parallel = false;
                self.restore_remap(cx, saved);
                let mut rbody = prologue;
                rbody.push(LStmt::WsFor(Box::new(ws?)));
                let region = self.push_region(
                    LRegion {
                        body: rbody,
                        frame: 0,
                        loops: vec![sched],
                        reds,
                        accums: Vec::new(),
                        uses_tasks: false,
                        span,
                        privatized: Vec::new(),
                    },
                    cx,
                );
                out.push(LStmt::Parallel { region });
            }
            Dir::For { clauses, loop_ } => {
                if cx.in_task {
                    return Err(Diag::new(
                        span,
                        "worksharing (`#pragma omp for`) is not allowed inside a task",
                    ));
                }
                if let Some(c) = cx.sync_ctx {
                    return Err(Diag::new(
                        span,
                        format!(
                            "`#pragma omp for` may not be closely nested inside {c} (its implied barrier would deadlock)"
                        ),
                    ));
                }
                if !cx.in_parallel {
                    return Err(Diag::new(
                        span,
                        "`#pragma omp for` must be lexically inside a parallel region",
                    ));
                }
                let sched = extract_schedule(clauses)?;
                let (prologue, reds, saved) =
                    self.apply_data_clauses(cx, clauses, span, DataCtx::For)?;
                let loop_idx = {
                    let loops = cx.loops.as_mut().expect("in_parallel implies loops");
                    loops.push(sched);
                    (loops.len() - 1) as u16
                };
                let ws = self.lower_ws_loop(cx, loop_, loop_idx, reds, true, true);
                self.restore_remap(cx, saved);
                out.extend(prologue);
                out.push(LStmt::WsFor(Box::new(ws?)));
            }
            Dir::Single { body } => {
                if cx.in_task {
                    return Err(Diag::new(span, "`single` is not allowed inside a task"));
                }
                if let Some(c) = cx.sync_ctx {
                    return Err(Diag::new(
                        span,
                        format!(
                            "`single` may not be closely nested inside {c} (its implied barrier would deadlock)"
                        ),
                    ));
                }
                if !cx.in_parallel {
                    return Err(Diag::new(
                        span,
                        "`single` must be lexically inside a parallel region",
                    ));
                }
                let saved_ctx = cx.sync_ctx.replace("a `single` construct");
                let body = self.lower_scoped(cx, body);
                cx.sync_ctx = saved_ctx;
                out.push(LStmt::Single { body: body?, span });
            }
            Dir::Critical { name, body } => {
                let lock = nomp::critical_id(name.as_deref().unwrap_or("<ompc>"));
                let saved_ctx = cx.sync_ctx.replace(CRITICAL_CTX);
                let body = self.lower_scoped(cx, body);
                cx.sync_ctx = saved_ctx;
                out.push(LStmt::Critical {
                    lock,
                    body: body?,
                    name: name.clone(),
                    span,
                });
            }
            Dir::Barrier => {
                if cx.in_task {
                    return Err(Diag::new(span, "`barrier` is not allowed inside a task"));
                }
                if let Some(c) = cx.sync_ctx {
                    return Err(Diag::new(
                        span,
                        format!(
                            "`barrier` may not be closely nested inside {c} (not every thread would reach it)"
                        ),
                    ));
                }
                self.fninfos[cx.fid].has_barrier = true;
                if !cx.in_parallel {
                    self.fninfos[cx.fid].seq_directives.push((span, "barrier"));
                }
                out.push(LStmt::Barrier(span));
            }
            Dir::Task { clauses, body } => {
                self.fninfos[cx.fid].has_task_like = true;
                if cx.loops.is_some() {
                    cx.region_tasky = true;
                }
                if !cx.in_parallel && !cx.in_task {
                    self.fninfos[cx.fid].seq_directives.push((span, "task"));
                }
                self.check_task_clauses(cx, clauses, span)?;
                let start_slot = cx.next_slot as u16;
                let was_task = cx.in_task;
                let saved_ctx = cx.sync_ctx.replace("a `task` body");
                cx.in_task = true;
                let body_res = self.lower_scoped(cx, body);
                cx.in_task = was_task;
                cx.sync_ctx = saved_ctx;
                let body = body_res?;
                let caps = self.free_locals(&body, start_slot);
                if caps.len() > MAX_TASK_CAPTURES {
                    return Err(Diag::new(
                        span,
                        format!(
                            "task body captures {} private variables; at most \
                             {MAX_TASK_CAPTURES} fit the 32-byte task descriptor",
                            caps.len()
                        ),
                    ));
                }
                let site = self.tasks.len();
                if site > u16::MAX as usize {
                    return Err(Diag::new(span, "too many task constructs"));
                }
                self.tasks.push(LTask {
                    body,
                    caps,
                    frame: 0,
                    span,
                });
                out.push(LStmt::Task { site: site as u16 });
            }
            Dir::Taskwait => {
                self.fninfos[cx.fid].has_task_like = true;
                self.fninfos[cx.fid].has_taskwait = true;
                if cx.sync_ctx == Some(CRITICAL_CTX) {
                    return Err(Diag::new(
                        span,
                        "`taskwait` may not be closely nested inside a `critical` \
                         section (the waiter blocks holding the lock while an \
                         unfinished task may need it)",
                    ));
                }
                if cx.loops.is_some() {
                    cx.region_tasky = true;
                }
                if !cx.in_parallel && !cx.in_task {
                    self.fninfos[cx.fid].seq_directives.push((span, "taskwait"));
                }
                out.push(LStmt::Taskwait);
            }
        }
        Ok(())
    }

    fn enter_region_checks(&self, cx: &FnCx, span: Span) -> Result<(), Diag> {
        if cx.in_task {
            return Err(Diag::new(span, "a task may not contain a parallel region"));
        }
        if cx.in_parallel {
            return Err(Diag::new(span, "nested parallel regions are not supported"));
        }
        Ok(())
    }

    /// Record an outlined region plus its task-reachability inputs (the
    /// lexical task flag and the region's call sites, drained from `cx`);
    /// `uses_tasks` is resolved after every function body is lowered.
    fn push_region(&mut self, mut r: LRegion, cx: &mut FnCx) -> u16 {
        let idx = self.regions.len();
        r.privatized = std::mem::take(&mut cx.region_privs);
        self.regions.push(r);
        self.region_aux
            .push((cx.region_tasky, std::mem::take(&mut cx.region_calls)));
        cx.region_tasky = false;
        idx as u16
    }

    fn restore_remap(&mut self, cx: &mut FnCx, saved: Vec<(u16, Option<LocalVar>)>) {
        for (gid, old) in saved {
            match old {
                Some(v) => {
                    cx.remap.insert(gid, v);
                }
                None => {
                    cx.remap.remove(&gid);
                }
            }
        }
    }

    /// Canonical `for (i = LO; i < HI; i = i + 1)` loops only.
    fn lower_ws_loop(
        &mut self,
        cx: &mut FnCx,
        fl: &ForLoop,
        loop_idx: u16,
        reds: Vec<RedSite>,
        barrier_after: bool,
        reset_after: bool,
    ) -> Result<WsFor, Diag> {
        cx.scopes.push(HashMap::new());
        let r = self.lower_ws_loop_inner(cx, fl, loop_idx, reds, barrier_after, reset_after);
        cx.scopes.pop();
        r
    }

    fn lower_ws_loop_inner(
        &mut self,
        cx: &mut FnCx,
        fl: &ForLoop,
        loop_idx: u16,
        reds: Vec<RedSite>,
        barrier_after: bool,
        reset_after: bool,
    ) -> Result<WsFor, Diag> {
        let bad = |span: Span, what: &str| {
            Diag::new(
                span,
                format!(
                    "work-shared loops must be canonical \
                     `for (int i = LO; i < HI; i = i + 1)`: {what}"
                ),
            )
        };
        let cond_span = fl.cond.as_ref().map(|e| e.span()).unwrap_or(fl.span);
        let step_span = fl
            .step
            .as_deref()
            .map(|s| match s {
                Stmt::Assign { value, .. } => value.span(),
                _ => fl.span,
            })
            .unwrap_or(fl.span);
        let (var_name, var, lo) = match fl.init.as_deref() {
            Some(Stmt::Decl {
                name,
                init: Some(lo),
                span,
                ..
            }) => {
                let lo = self.lower_expr(cx, lo)?;
                let slot = cx.declare(name, true, *span)?;
                (name.clone(), slot, lo)
            }
            Some(Stmt::Assign {
                target: Target::Var(name, span),
                value,
            }) => {
                let lo = self.lower_expr(cx, value)?;
                match self.resolve(cx, name, *span)? {
                    Resolved::Local(v) => (name.clone(), v.slot, lo),
                    _ => {
                        return Err(Diag::new(
                            *span,
                            format!("loop variable `{name}` must be a private (stack) variable"),
                        ));
                    }
                }
            }
            _ => return Err(bad(fl.span, "missing `i = LO` initializer")),
        };
        let hi = match &fl.cond {
            Some(Expr::Bin(ast::BinOp::Lt, v, hi, _)) if is_var(v, &var_name) => {
                self.lower_expr(cx, hi)?
            }
            Some(Expr::Bin(ast::BinOp::Le, v, hi, span)) if is_var(v, &var_name) => LExpr::Bin(
                ast::BinOp::Add,
                Box::new(self.lower_expr(cx, hi)?),
                Box::new(LExpr::Num(1.0)),
                *span,
            ),
            _ => return Err(bad(cond_span, "condition must be `i < HI` or `i <= HI`")),
        };
        match fl.step.as_deref() {
            Some(Stmt::Assign {
                target: Target::Var(name, _),
                value: Expr::Bin(ast::BinOp::Add, a, b, _),
            }) if name == &var_name
                && is_var(a, &var_name)
                && matches!(**b, Expr::Num(v, _) if v == 1.0) => {}
            _ => return Err(bad(step_span, "step must be `i = i + 1`")),
        }
        let saved_ctx = cx.sync_ctx.replace("a work-shared loop body");
        let body = self.lower_scoped(cx, &fl.body);
        cx.sync_ctx = saved_ctx;
        let body = body?;
        Ok(WsFor {
            loop_idx,
            span: fl.span,
            var,
            lo,
            hi,
            body,
            reds,
            barrier_after,
            reset_after,
        })
    }

    // ------------------------------------------------------------------
    // Clauses
    // ------------------------------------------------------------------

    fn check_task_clauses(
        &mut self,
        cx: &mut FnCx,
        clauses: &[Clause],
        span: Span,
    ) -> Result<(), Diag> {
        for c in clauses {
            match c {
                Clause::Firstprivate(vars) => {
                    for (name, vspan) in vars {
                        match self.resolve(cx, name, *vspan)? {
                            Resolved::Local(_) => {} // default capture anyway
                            _ => {
                                return Err(Diag::new(
                                    *vspan,
                                    format!(
                                        "`firstprivate({name})` on a task must name a \
                                         private (stack) variable; globals stay shared"
                                    ),
                                ));
                            }
                        }
                    }
                }
                Clause::Shared(vars) => {
                    for (name, vspan) in vars {
                        self.require_shareable(cx, name, *vspan)?;
                    }
                }
                Clause::Private(vars) => {
                    let span = vars.first().map(|v| v.1).unwrap_or(span);
                    return Err(Diag::new(
                        span,
                        "`private` on a task is not supported (captures are firstprivate)",
                    ));
                }
                Clause::Reduction { span, .. } | Clause::Schedule { span, .. } => {
                    return Err(Diag::new(*span, "unsupported clause on `task`"));
                }
            }
        }
        Ok(())
    }

    /// `shared(x)` requires a DSM-resident variable (Modification 1).
    fn require_shareable(&mut self, cx: &mut FnCx, name: &str, span: Span) -> Result<(), Diag> {
        match self.resolve(cx, name, span)? {
            Resolved::GlobalScalar(_) | Resolved::GlobalArray(_) => Ok(()),
            Resolved::Local(_) => Err(Diag::new(
                span,
                format!(
                    "cannot share stack variable `{name}`: shared data must be declared \
                     at global scope so it lives in DSM space (the paper's Modification 1 \
                     — variables are private unless explicitly allocated shared)"
                ),
            )),
        }
    }

    /// Handle shared/private/firstprivate/reduction on a parallel-ish
    /// construct. Returns prologue statements (private initialization),
    /// reduction sites, and the remap entries to restore afterwards.
    #[allow(clippy::type_complexity)]
    fn apply_data_clauses(
        &mut self,
        cx: &mut FnCx,
        clauses: &[Clause],
        span: Span,
        ctx: DataCtx,
    ) -> Result<(Vec<LStmt>, Vec<RedSite>, Vec<(u16, Option<LocalVar>)>), Diag> {
        let mut prologue = Vec::new();
        let mut reds = Vec::new();
        let mut saved = Vec::new();
        let mut privatized: Vec<String> = Vec::new();

        let mut rebind = |cx: &mut FnCx, g: GInfo, span: Span| -> Result<u16, Diag> {
            let slot = cx.fresh_slot(span)?;
            let old = cx.remap.insert(
                g.gid,
                LocalVar {
                    slot,
                    trunc: g.trunc,
                },
            );
            saved.push((g.gid, old));
            Ok(slot)
        };

        for c in clauses {
            match c {
                Clause::Schedule { span, .. } => {
                    if ctx == DataCtx::Parallel {
                        return Err(Diag::new(*span, "`schedule` requires a worksharing `for`"));
                    }
                }
                Clause::Shared(vars) => {
                    if ctx == DataCtx::For {
                        let vspan = vars.first().map(|v| v.1).unwrap_or(span);
                        return Err(Diag::new(vspan, "`shared` is not a valid clause on `for`"));
                    }
                    for (name, vspan) in vars {
                        self.require_shareable(cx, name, *vspan)?;
                    }
                }
                Clause::Private(vars) | Clause::Firstprivate(vars) => {
                    let first = matches!(c, Clause::Firstprivate(_));
                    for (name, vspan) in vars {
                        privatized.push(name.clone());
                        match self.resolve(cx, name, *vspan)? {
                            Resolved::Local(v) => {
                                // Stack variables are captured by value
                                // into the region frame already; `private`
                                // additionally clears the copy.
                                if !first {
                                    prologue.push(LStmt::SetLocal {
                                        slot: v.slot,
                                        trunc: v.trunc,
                                        val: LExpr::Num(0.0),
                                        span: *vspan,
                                    });
                                }
                            }
                            Resolved::GlobalScalar(g) => {
                                let slot = rebind(cx, g, *vspan)?;
                                cx.region_privs.push(slot);
                                let val = if first {
                                    LExpr::Global(g.gid, *vspan)
                                } else {
                                    LExpr::Num(0.0)
                                };
                                prologue.push(LStmt::SetLocal {
                                    slot,
                                    trunc: g.trunc,
                                    val,
                                    span: *vspan,
                                });
                            }
                            Resolved::GlobalArray(_) => {
                                return Err(Diag::new(
                                    *vspan,
                                    format!("cannot privatize array `{name}`"),
                                ));
                            }
                        }
                    }
                }
                Clause::Reduction { .. } => {} // second pass below
            }
        }

        for c in clauses {
            let Clause::Reduction { op, vars, .. } = c else {
                continue;
            };
            for (name, vspan) in vars {
                if privatized.contains(name) {
                    return Err(Diag::new(
                        *vspan,
                        format!("reduction variable `{name}` cannot also be private"),
                    ));
                }
                match self.resolve(cx, name, *vspan)? {
                    Resolved::GlobalScalar(g) => {
                        let slot = rebind(cx, g, *vspan)?;
                        reds.push(RedSite {
                            site: JoinSite {
                                op: red_op(*op),
                                gid: g.gid,
                                trunc: g.trunc,
                                key: 0, // patched below (borrow order)
                            },
                            slot,
                            span: *vspan,
                        });
                    }
                    Resolved::Local(_) => {
                        return Err(Diag::new(
                            *vspan,
                            format!(
                                "reduction variable `{name}` is private (a stack \
                                 variable); reductions combine into shared memory, so \
                                 declare it at global scope (Modification 1)"
                            ),
                        ));
                    }
                    Resolved::GlobalArray(_) => {
                        return Err(Diag::new(
                            *vspan,
                            format!("reduction on array `{name}` is not supported"),
                        ));
                    }
                }
            }
        }
        for r in &mut reds {
            r.site.key = self.next_lock();
        }
        Ok((prologue, reds, saved))
    }

    // ------------------------------------------------------------------
    // Expressions
    // ------------------------------------------------------------------

    fn resolve(&mut self, cx: &mut FnCx, name: &str, span: Span) -> Result<Resolved, Diag> {
        if let Some(v) = cx.lookup(name) {
            return Ok(Resolved::Local(v));
        }
        if let Some(&g) = self.gmap.get(name) {
            if let Some(limit) = cx.global_limit {
                if g.gid >= limit {
                    return Err(Diag::new(
                        span,
                        format!("global `{name}` used before its declaration"),
                    ));
                }
            }
            if g.array {
                return Ok(Resolved::GlobalArray(g));
            }
            if let Some(&v) = cx.remap.get(&g.gid) {
                return Ok(Resolved::Local(v));
            }
            return Ok(Resolved::GlobalScalar(g));
        }
        Err(Diag::new(span, format!("unknown variable `{name}`")))
    }

    fn resolve_array(&mut self, cx: &mut FnCx, name: &str, span: Span) -> Result<GInfo, Diag> {
        match self.resolve(cx, name, span)? {
            Resolved::GlobalArray(g) => Ok(g),
            Resolved::Local(_) | Resolved::GlobalScalar(_) => {
                Err(Diag::new(span, format!("`{name}` is not an array")))
            }
        }
    }

    fn lower_expr(&mut self, cx: &mut FnCx, e: &Expr) -> Result<LExpr, Diag> {
        Ok(match e {
            Expr::Num(v, _) => LExpr::Num(*v),
            Expr::Var(name, span) => match self.resolve(cx, name, *span)? {
                Resolved::Local(v) => LExpr::Local(v.slot),
                Resolved::GlobalScalar(g) => LExpr::Global(g.gid, *span),
                Resolved::GlobalArray(_) => {
                    return Err(Diag::new(
                        *span,
                        format!("array `{name}` must be used with an index"),
                    ));
                }
            },
            Expr::Index(name, idx, span) => {
                let g = self.resolve_array(cx, name, *span)?;
                LExpr::Elem(g.gid, Box::new(self.lower_expr(cx, idx)?), *span)
            }
            Expr::Un(op, e, _) => LExpr::Un(*op, Box::new(self.lower_expr(cx, e)?)),
            Expr::Bin(op, a, b, span) => LExpr::Bin(
                *op,
                Box::new(self.lower_expr(cx, a)?),
                Box::new(self.lower_expr(cx, b)?),
                *span,
            ),
            Expr::Call(name, args, span) => {
                let mut largs = Vec::new();
                for a in args {
                    largs.push(self.lower_expr(cx, a)?);
                }
                if let Some((b, arity)) = builtin(name) {
                    if largs.len() != arity {
                        return Err(Diag::new(
                            *span,
                            format!("`{name}` takes {arity} argument(s), got {}", largs.len()),
                        ));
                    }
                    LExpr::Builtin(b, largs)
                } else if let Some(&fid) = self.fids.get(name) {
                    if cx.global_limit.is_some() {
                        return Err(Diag::new(
                            *span,
                            "function calls are not allowed in global initializers",
                        ));
                    }
                    if largs.len() != self.arities[fid] {
                        return Err(Diag::new(
                            *span,
                            format!(
                                "`{name}` takes {} argument(s), got {}",
                                self.arities[fid],
                                largs.len()
                            ),
                        ));
                    }
                    let info = &mut self.fninfos[cx.fid];
                    if cx.in_parallel || cx.in_task {
                        info.par_calls.push(fid);
                    } else {
                        info.seq_calls.push(fid);
                    }
                    if cx.loops.is_some() {
                        cx.region_calls.push(fid);
                    }
                    if let Some(c) = cx.sync_ctx {
                        self.sync_calls.push((fid, *span, c));
                    }
                    LExpr::Call(fid as u16, largs, *span)
                } else {
                    return Err(Diag::new(*span, format!("unknown function `{name}`")));
                }
            }
        })
    }

    /// Frame slots below `limit` referenced anywhere in `stmts`, sorted
    /// and deduplicated — the implicit firstprivate capture set of a
    /// task body.
    fn free_locals(&self, stmts: &[LStmt], limit: u16) -> Vec<u16> {
        let mut out = Vec::new();
        visit_stmts(stmts, &mut |s| {
            match s {
                LStmt::SetLocal { slot, .. } => out.push(*slot),
                // A nested task's captures are read from this frame at
                // spawn time, so they are free here too.
                LStmt::Task { site } => out.extend(&self.tasks[*site as usize].caps),
                _ => {}
            }
            for e in s.exprs() {
                e.visit(&mut |n| {
                    if let LExpr::Local(slot) = n {
                        out.push(*slot);
                    }
                });
            }
        });
        out.retain(|&slot| slot < limit);
        out.sort_unstable();
        out.dedup();
        out
    }
}

#[derive(PartialEq, Eq, Clone, Copy)]
enum DataCtx {
    Parallel,
    ParallelFor,
    For,
}

fn extract_schedule(clauses: &[Clause]) -> Result<LSched, Diag> {
    let mut found: Option<LSched> = None;
    for c in clauses {
        if let Clause::Schedule { kind, chunk, span } = c {
            if found.is_some() {
                return Err(Diag::new(*span, "duplicate `schedule` clause"));
            }
            found = Some(LSched {
                kind: *kind,
                chunk: chunk.unwrap_or(0),
            });
        }
    }
    Ok(found.unwrap_or(LSched {
        kind: ast::SchedKind::Static,
        chunk: 0,
    }))
}

fn red_op(k: RedKind) -> RedOp {
    match k {
        RedKind::Sum => RedOp::Sum,
        RedKind::Prod => RedOp::Prod,
        RedKind::Min => RedOp::Min,
        RedKind::Max => RedOp::Max,
    }
}

fn is_var(e: &Expr, name: &str) -> bool {
    matches!(e, Expr::Var(n, _) if n == name)
}

fn builtin(name: &str) -> Option<(Builtin, usize)> {
    Some(match name {
        "sqrt" => (Builtin::Sqrt, 1),
        "fabs" => (Builtin::Fabs, 1),
        "floor" => (Builtin::Floor, 1),
        "sin" => (Builtin::Sin, 1),
        "cos" => (Builtin::Cos, 1),
        "exp" => (Builtin::Exp, 1),
        "omp_get_thread_num" => (Builtin::ThreadNum, 0),
        "omp_get_num_threads" => (Builtin::NumThreads, 0),
        "omp_get_num_procs" => (Builtin::NumProcs, 0),
        "omp_get_wtime" => (Builtin::Wtime, 0),
        _ => return None,
    })
}

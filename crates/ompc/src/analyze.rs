//! Static data-race & sync-misuse analysis over the lowered IR.
//!
//! Runs after [`crate::sema`], before execution. The pass only reports
//! *provable* findings: an access pair is flagged only when the analysis
//! can show both accesses touch the same shared location from different
//! threads (or task instances) with no ordering barrier and no common
//! lock. Anything it cannot prove — computed indices, loop-carried
//! footprints it cannot separate — stays silent, so the shipped example
//! corpus (`pi`, `dotprod`, `jacobi`, `fib`, `qsort`) lints clean.
//!
//! ## Abstractions
//!
//! - **Footprint** ([`Foot`]): what part of a global an access touches.
//!   `Affine(c)` means `a[i + c]` of the enclosing work-shared loop
//!   variable `i` — two affine accesses with *different* offsets collide
//!   across iterations; the same offset never does (each iteration owns
//!   its cell). `Unknown` never overlaps anything: not provable.
//! - **Phase**: a counter bumped at every barrier (explicit, or implied
//!   by `single` / interior `omp for`). Accesses in different phases are
//!   ordered; only same-phase accesses can race. Task accesses conflict
//!   with every phase at or after their spawn point.
//! - **Multiplicity** ([`Mult`]): how many threads execute a statement —
//!   the whole team, one thread per iteration, thread 0 (`single`), or a
//!   task instance. A plain team/per-iteration write to a fixed cell is
//!   a race *with itself*.
//! - **Function summaries**: accesses, acquired locks, spawned task
//!   sites and barriers of each function, computed to a fixpoint so
//!   recursion (`fib`, `qsort`) converges; instantiated at call sites
//!   with the caller's held locks added.

use crate::diag::Span;
use crate::ir::{Builtin, LExpr, LPrint, LProgram, LRegion, LStmt, WsFor};
use crate::lints::{Lint, LintCode};
use nomp::RedOp;
use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};

/// Run every check over a lowered program. Lints come back sorted by
/// source position and deduplicated; levels are all `Warn` (promotion to
/// `Deny` happens at the reporting surface).
pub(crate) fn analyze(p: &LProgram) -> Vec<Lint> {
    let sums = fn_summaries(p);
    let mut lints: Vec<Lint> = Vec::new();
    let mut edges: BTreeSet<LockEdge> = BTreeSet::new();
    let mut lock_names: BTreeMap<u32, Option<String>> = BTreeMap::new();

    for r in &p.regions {
        analyze_region(p, &sums, r, &mut lints, &mut edges, &mut lock_names);
    }

    // Lock-order edges inside functions reachable from parallel context
    // (sequential criticals are elided by the runtime — no deadlock).
    let par = par_reachable(p);
    for &fid in &par {
        for e in &sums[fid as usize].lock_edges {
            edges.insert(*e);
        }
    }
    lock_order_lints(&edges, &lock_names, &mut lints);
    dead_critical_lints(p, &sums, &par, &mut lints);
    seq_critical_lints(p, &par, &mut lints);

    // A private-escape finding at a span supersedes the plain race lint
    // the same store also triggers.
    let escapes: HashSet<(u32, u32)> = lints
        .iter()
        .filter(|l| l.code == LintCode::PrivateEscape)
        .map(|l| sk(l.span))
        .collect();
    lints.retain(|l| {
        !(matches!(l.code, LintCode::SharedWriteRace | LintCode::ReadWriteRace)
            && escapes.contains(&sk(l.span)))
    });

    lints.sort_by_key(|l| {
        (
            sk(l.span),
            l.code,
            l.related.as_ref().map(|r| sk(r.0)),
            l.msg.clone(),
        )
    });
    lints.dedup_by_key(|l| {
        (
            sk(l.span),
            l.code,
            l.related.as_ref().map(|r| sk(r.0)),
            l.msg.clone(),
        )
    });
    lints
}

fn sk(s: Span) -> (u32, u32) {
    (s.line, s.col)
}

fn unsk(k: (u32, u32)) -> Span {
    Span::new(k.0, k.1)
}

fn gname(p: &LProgram, gid: u16) -> &str {
    &p.globals[gid as usize].name
}

// ---------------------------------------------------------------------
// Footprints
// ---------------------------------------------------------------------

/// What part of a shared global one access touches.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Foot {
    /// The whole scalar.
    Scalar,
    /// A compile-time constant element index.
    Const(i64),
    /// `a[i + c]` of the enclosing work-shared loop variable.
    Affine(i64),
    /// An index every thread computes identically (no locals involved).
    Invariant,
    /// Not provable — never overlaps anything.
    Unknown,
}

/// Can two *distinct* accesses with these footprints touch the same
/// cell (across threads / iterations)? Only provable overlaps count.
fn overlap(a: Foot, b: Foot) -> bool {
    match (a, b) {
        (Foot::Unknown, _) | (_, Foot::Unknown) => false,
        (Foot::Scalar, Foot::Scalar) => true,
        (Foot::Const(x), Foot::Const(y)) => x == y,
        // Same-offset affine accesses partition by iteration; different
        // offsets collide across iterations (loop-carried).
        (Foot::Affine(x), Foot::Affine(y)) => x != y,
        (Foot::Invariant, Foot::Invariant) => true,
        _ => false,
    }
}

/// Does one lexical access race with its own other-thread / other-
/// iteration executions?
fn self_overlap(f: Foot) -> bool {
    matches!(f, Foot::Scalar | Foot::Const(_) | Foot::Invariant)
}

fn const_eval(e: &LExpr) -> Option<f64> {
    use crate::ast::{BinOp, UnOp};
    match e {
        LExpr::Num(v) => Some(*v),
        LExpr::Un(UnOp::Neg, a) => Some(-const_eval(a)?),
        LExpr::Bin(op, a, b, _) => {
            let (a, b) = (const_eval(a)?, const_eval(b)?);
            match op {
                BinOp::Add => Some(a + b),
                BinOp::Sub => Some(a - b),
                BinOp::Mul => Some(a * b),
                BinOp::Div => Some(a / b),
                _ => None,
            }
        }
        _ => None,
    }
}

fn as_const_idx(e: &LExpr) -> Option<i64> {
    let v = const_eval(e)?;
    (v.fract() == 0.0 && v.abs() < 1e15).then_some(v as i64)
}

fn expr_mentions_local(e: &LExpr) -> bool {
    match e {
        LExpr::Num(_) | LExpr::Global(..) => false,
        LExpr::Local(_) => true,
        LExpr::Elem(_, idx, _) => expr_mentions_local(idx),
        LExpr::Un(_, a) => expr_mentions_local(a),
        LExpr::Bin(_, a, b, _) => expr_mentions_local(a) || expr_mentions_local(b),
        // Calls and thread-dependent builtins are never invariant.
        LExpr::Call(..) => true,
        LExpr::Builtin(b, args) => {
            matches!(b, Builtin::ThreadNum | Builtin::Wtime) || args.iter().any(expr_mentions_local)
        }
    }
}

/// Classify an element index expression relative to the enclosing
/// work-shared loop variable (if any).
fn classify_idx(e: &LExpr, loop_var: Option<u16>) -> Foot {
    use crate::ast::BinOp;
    if let Some(k) = as_const_idx(e) {
        return Foot::Const(k);
    }
    if let Some(lv) = loop_var {
        match e {
            LExpr::Local(s) if *s == lv => return Foot::Affine(0),
            LExpr::Bin(BinOp::Add, a, b, _) => {
                if let (LExpr::Local(s), Some(c)) = (&**a, as_const_idx(b)) {
                    if *s == lv {
                        return Foot::Affine(c);
                    }
                }
                if let (Some(c), LExpr::Local(s)) = (as_const_idx(a), &**b) {
                    if *s == lv {
                        return Foot::Affine(c);
                    }
                }
            }
            LExpr::Bin(BinOp::Sub, a, b, _) => {
                if let (LExpr::Local(s), Some(c)) = (&**a, as_const_idx(b)) {
                    if *s == lv {
                        return Foot::Affine(-c);
                    }
                }
            }
            _ => {}
        }
    }
    if !expr_mentions_local(e) {
        return Foot::Invariant;
    }
    Foot::Unknown
}

// ---------------------------------------------------------------------
// Function summaries
// ---------------------------------------------------------------------

/// One shared access inside a function, with the locks the function
/// itself holds around it. Spans are `(line, col)` keys so the set is
/// ordered.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
struct SumAcc {
    gid: u16,
    write: bool,
    foot: Foot,
    locks: BTreeSet<u32>,
    span: (u32, u32),
}

/// `(outer lock, inner lock, outer span, inner span)` — inner acquired
/// while outer is held.
type LockEdge = (u32, u32, (u32, u32), (u32, u32));

#[derive(Debug, Default, Clone, PartialEq)]
struct FnSum {
    accs: BTreeSet<SumAcc>,
    /// Task sites this function spawns (directly or via callees).
    spawns: BTreeSet<u16>,
    /// Critical sections acquired anywhere inside (lock, span).
    acquires: BTreeSet<(u32, (u32, u32))>,
    lock_edges: BTreeSet<LockEdge>,
    has_barrier: bool,
    has_shared: bool,
}

fn fn_summaries(p: &LProgram) -> Vec<FnSum> {
    let mut sums = vec![FnSum::default(); p.funcs.len()];
    // Recursion converges because every field only grows and spans/gids
    // are finite.
    loop {
        let mut changed = false;
        for fid in 0..p.funcs.len() {
            let mut cur = FnSum::default();
            let mut held: Vec<(u32, (u32, u32))> = Vec::new();
            sum_stmts(&p.funcs[fid].body, &sums, &mut held, &mut cur);
            if cur != sums[fid] {
                sums[fid] = cur;
                changed = true;
            }
        }
        if !changed {
            return sums;
        }
    }
}

fn sum_stmts(stmts: &[LStmt], sums: &[FnSum], held: &mut Vec<(u32, (u32, u32))>, out: &mut FnSum) {
    for s in stmts {
        match s {
            LStmt::SetLocal { val, .. } => sum_expr(val, sums, held, out),
            LStmt::SetGlobal { gid, val, span, .. } => {
                sum_expr(val, sums, held, out);
                sum_acc(out, *gid, true, Foot::Scalar, held, *span);
            }
            LStmt::SetElem {
                gid,
                idx,
                val,
                span,
                ..
            } => {
                sum_expr(idx, sums, held, out);
                sum_expr(val, sums, held, out);
                sum_acc(out, *gid, true, classify_idx(idx, None), held, *span);
            }
            LStmt::If { cond, then_, else_ } => {
                sum_expr(cond, sums, held, out);
                sum_stmts(then_, sums, held, out);
                sum_stmts(else_, sums, held, out);
            }
            LStmt::While { cond, body } => {
                sum_expr(cond, sums, held, out);
                sum_stmts(body, sums, held, out);
            }
            LStmt::Return(v) => {
                if let Some(v) = v {
                    sum_expr(v, sums, held, out);
                }
            }
            LStmt::Expr(e) => sum_expr(e, sums, held, out),
            LStmt::Print(parts) => {
                for p in parts {
                    if let LPrint::Val(e) = p {
                        sum_expr(e, sums, held, out);
                    }
                }
            }
            // Regions are analyzed on their own; a function containing
            // one is only callable from sequential context anyway.
            LStmt::Parallel { .. } => {}
            LStmt::WsFor(w) => {
                sum_expr(&w.lo, sums, held, out);
                sum_expr(&w.hi, sums, held, out);
                sum_stmts(&w.body, sums, held, out);
            }
            LStmt::Single { body, .. } => sum_stmts(body, sums, held, out),
            LStmt::Critical {
                lock, body, span, ..
            } => {
                for &(l, ls) in held.iter() {
                    out.lock_edges.insert((l, *lock, ls, sk(*span)));
                }
                out.acquires.insert((*lock, sk(*span)));
                held.push((*lock, sk(*span)));
                sum_stmts(body, sums, held, out);
                held.pop();
            }
            LStmt::Barrier(_) => out.has_barrier = true,
            LStmt::Task { site } => {
                out.spawns.insert(*site);
            }
            LStmt::Taskwait => {}
        }
    }
}

fn sum_expr(e: &LExpr, sums: &[FnSum], held: &mut Vec<(u32, (u32, u32))>, out: &mut FnSum) {
    match e {
        LExpr::Num(_) | LExpr::Local(_) => {}
        LExpr::Global(gid, span) => sum_acc(out, *gid, false, Foot::Scalar, held, *span),
        LExpr::Elem(gid, idx, span) => {
            sum_expr(idx, sums, held, out);
            sum_acc(out, *gid, false, classify_idx(idx, None), held, *span);
        }
        LExpr::Un(_, a) => sum_expr(a, sums, held, out),
        LExpr::Bin(_, a, b, _) => {
            sum_expr(a, sums, held, out);
            sum_expr(b, sums, held, out);
        }
        LExpr::Call(fid, args, _) => {
            for a in args {
                sum_expr(a, sums, held, out);
            }
            let callee = sums[*fid as usize].clone();
            let cur: BTreeSet<u32> = held.iter().map(|&(l, _)| l).collect();
            for acc in &callee.accs {
                let mut locks = acc.locks.clone();
                locks.extend(cur.iter().copied());
                out.accs.insert(SumAcc {
                    locks,
                    ..acc.clone()
                });
            }
            out.spawns.extend(callee.spawns.iter().copied());
            out.acquires.extend(callee.acquires.iter().copied());
            out.lock_edges.extend(callee.lock_edges.iter().copied());
            for &(l, ls) in held.iter() {
                for &(m, ms) in &callee.acquires {
                    out.lock_edges.insert((l, m, ls, ms));
                }
            }
            out.has_barrier |= callee.has_barrier;
            out.has_shared |= callee.has_shared;
        }
        LExpr::Builtin(_, args) => {
            for a in args {
                sum_expr(a, sums, held, out);
            }
        }
    }
}

fn sum_acc(
    out: &mut FnSum,
    gid: u16,
    write: bool,
    foot: Foot,
    held: &[(u32, (u32, u32))],
    span: Span,
) {
    out.has_shared = true;
    out.accs.insert(SumAcc {
        gid,
        write,
        foot,
        locks: held.iter().map(|&(l, _)| l).collect(),
        span: sk(span),
    });
}

// ---------------------------------------------------------------------
// Region walk
// ---------------------------------------------------------------------

/// How many threads execute a statement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mult {
    /// Every thread of the team.
    Team,
    /// One thread per work-shared iteration.
    PerIter,
    /// Thread 0 only (`single` body).
    One,
    /// A task instance.
    Task,
}

/// Context of a task instance's accesses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct TaskCtx {
    site: u16,
    /// More than one instance can exist (spawned in a loop, spawned
    /// from a function or task body, or several lexical spawn sites).
    multi: bool,
    /// When the *only* spawn is in a `single` block: that block's id —
    /// program order and `taskwait` inside the block order the task
    /// against the block's other statements.
    scope: Option<u32>,
    spawn_seq: u32,
    spawn_epoch: u32,
    /// Accesses in phases strictly before this are barrier-ordered
    /// before the spawn (and so before the task).
    spawn_phase: u32,
}

/// One shared access inside a region (or a task it spawns).
#[derive(Debug, Clone)]
struct Acc {
    gid: u16,
    write: bool,
    foot: Foot,
    phase: u32,
    mult: Mult,
    locks: BTreeSet<u32>,
    single: Option<u32>,
    task: Option<TaskCtx>,
    seq: u32,
    epoch: u32,
    span: Span,
}

/// Where a task site gets spawned (merged over all spawn statements).
#[derive(Debug, Clone, Copy)]
struct SpawnCtx {
    /// `single` block id when spawned directly in a region's `single`.
    scope: Option<u32>,
    one: bool,
    in_loop: bool,
    /// Registered from a function or task body: instance count unknown.
    from_indirect: bool,
    seq: u32,
    epoch: u32,
    phase: u32,
}

struct Rw<'a> {
    p: &'a LProgram,
    sums: &'a [FnSum],
    accs: Vec<Acc>,
    lints: &'a mut Vec<Lint>,
    edges: &'a mut BTreeSet<LockEdge>,
    lock_names: &'a mut BTreeMap<u32, Option<String>>,
    spawn_ctxs: HashMap<u16, Vec<SpawnCtx>>,
    /// `seq` values at which some task got spawned (dead-barrier check).
    spawn_seqs: Vec<u32>,
    barriers: Vec<(u32, Span)>,
    // walk state
    phase: u32,
    seq: u32,
    epoch: u32,
    mult: Mult,
    locks: Vec<(u32, (u32, u32))>,
    single: Option<u32>,
    next_single: u32,
    while_depth: u32,
    loop_var: Option<u16>,
    task: Option<TaskCtx>,
    red_gids: Vec<(u16, RedOp, Span)>,
    red_slots: Vec<(u16, RedOp, Span)>,
    /// Span of the innermost spanned statement being walked — anchors
    /// slot-level findings (locals carry no expression spans).
    stmt_span: Option<Span>,
    /// Slots read by enclosing `if` conditions (min/max guard pattern).
    guards: Vec<u16>,
    privs: HashSet<u16>,
    tainted: HashSet<u16>,
}

fn analyze_region(
    p: &LProgram,
    sums: &[FnSum],
    r: &LRegion,
    lints: &mut Vec<Lint>,
    edges: &mut BTreeSet<LockEdge>,
    lock_names: &mut BTreeMap<u32, Option<String>>,
) {
    let mut w = Rw {
        p,
        sums,
        accs: Vec::new(),
        lints,
        edges,
        lock_names,
        spawn_ctxs: HashMap::new(),
        spawn_seqs: Vec::new(),
        barriers: Vec::new(),
        phase: 0,
        seq: 0,
        epoch: 0,
        mult: Mult::Team,
        locks: Vec::new(),
        single: None,
        next_single: 0,
        while_depth: 0,
        loop_var: None,
        task: None,
        red_gids: Vec::new(),
        red_slots: Vec::new(),
        stmt_span: None,
        guards: Vec::new(),
        privs: r.privatized.iter().copied().collect(),
        tainted: HashSet::new(),
    };
    for rs in &r.reds {
        w.red_gids.push((rs.gid, rs.op, rs.span));
        w.red_slots.push((rs.slot, rs.op, rs.span));
    }
    w.stmts(&r.body);

    // Saturate the reachable task sites (recursion: a site's body may
    // spawn more sites, directly or through calls), then walk each
    // reachable body once as a task instance.
    let mut queue: Vec<u16> = w.spawn_ctxs.keys().copied().collect();
    let mut scanned: BTreeSet<u16> = BTreeSet::new();
    while let Some(site) = queue.pop() {
        if !scanned.insert(site) {
            continue;
        }
        let mut found: BTreeSet<u16> = BTreeSet::new();
        scan_spawns(&p.tasks[site as usize].body, sums, &mut found);
        for s2 in found {
            w.spawn_ctxs.entry(s2).or_default().push(SpawnCtx {
                scope: None,
                one: false,
                in_loop: false,
                from_indirect: true,
                seq: 0,
                epoch: 0,
                phase: 0,
            });
            queue.push(s2);
        }
    }
    let sites: Vec<(u16, Vec<SpawnCtx>)> = {
        let mut v: Vec<_> = w.spawn_ctxs.drain().collect();
        v.sort_by_key(|(s, _)| *s);
        v
    };
    for (site, ctxs) in sites {
        let multi = ctxs.len() > 1 || ctxs.iter().any(|c| c.from_indirect || c.in_loop || !c.one);
        let solo = (ctxs.len() == 1 && !multi).then(|| ctxs[0]);
        let ctx = TaskCtx {
            site,
            multi,
            scope: solo.and_then(|c| c.scope),
            spawn_seq: solo.map_or(0, |c| c.seq),
            spawn_epoch: solo.map_or(0, |c| c.epoch),
            spawn_phase: ctxs.iter().map(|c| c.phase).min().unwrap_or(0),
        };
        w.task = Some(ctx);
        w.mult = Mult::Task;
        w.locks.clear();
        w.single = None;
        w.epoch = 0;
        w.red_gids.clear();
        w.red_slots.clear();
        w.stmts(&p.tasks[site as usize].body);
    }

    let accs = std::mem::take(&mut w.accs);
    pair_lints(p, &accs, w.lints);
    for &(bseq, bspan) in &w.barriers {
        let live = accs.iter().any(|a| a.task.is_none() && a.seq > bseq)
            || w.spawn_seqs.iter().any(|&s| s > bseq);
        if !live {
            w.lints.push(
                Lint::new(
                    LintCode::DeadSync,
                    bspan,
                    "barrier orders no shared access: nothing after it in this region \
                     touches shared data (it still costs a full round of sync traffic)",
                )
                .with_related(r.span, "in the parallel region starting here".to_string()),
            );
        }
    }
}

fn scan_spawns(stmts: &[LStmt], sums: &[FnSum], out: &mut BTreeSet<u16>) {
    for s in stmts {
        match s {
            LStmt::Task { site } => {
                out.insert(*site);
            }
            LStmt::If { cond, then_, else_ } => {
                scan_spawn_expr(cond, sums, out);
                scan_spawns(then_, sums, out);
                scan_spawns(else_, sums, out);
            }
            LStmt::While { cond, body } => {
                scan_spawn_expr(cond, sums, out);
                scan_spawns(body, sums, out);
            }
            LStmt::SetLocal { val, .. } | LStmt::SetGlobal { val, .. } => {
                scan_spawn_expr(val, sums, out)
            }
            LStmt::SetElem { idx, val, .. } => {
                scan_spawn_expr(idx, sums, out);
                scan_spawn_expr(val, sums, out);
            }
            LStmt::Return(Some(e)) | LStmt::Expr(e) => scan_spawn_expr(e, sums, out),
            LStmt::Print(parts) => {
                for p in parts {
                    if let LPrint::Val(e) = p {
                        scan_spawn_expr(e, sums, out);
                    }
                }
            }
            LStmt::Single { body, .. } | LStmt::Critical { body, .. } => {
                scan_spawns(body, sums, out)
            }
            LStmt::WsFor(w) => scan_spawns(&w.body, sums, out),
            _ => {}
        }
    }
}

fn scan_spawn_expr(e: &LExpr, sums: &[FnSum], out: &mut BTreeSet<u16>) {
    match e {
        LExpr::Call(fid, args, _) => {
            for a in args {
                scan_spawn_expr(a, sums, out);
            }
            out.extend(sums[*fid as usize].spawns.iter().copied());
        }
        LExpr::Un(_, a) | LExpr::Elem(_, a, _) => scan_spawn_expr(a, sums, out),
        LExpr::Bin(_, a, b, _) => {
            scan_spawn_expr(a, sums, out);
            scan_spawn_expr(b, sums, out);
        }
        LExpr::Builtin(_, args) => {
            for a in args {
                scan_spawn_expr(a, sums, out);
            }
        }
        _ => {}
    }
}

impl Rw<'_> {
    fn stmts(&mut self, stmts: &[LStmt]) {
        for s in stmts {
            self.seq += 1;
            self.stmt(s);
        }
    }

    fn stmt(&mut self, s: &LStmt) {
        self.stmt_span = match s {
            LStmt::SetLocal { span, .. }
            | LStmt::SetGlobal { span, .. }
            | LStmt::SetElem { span, .. } => Some(*span),
            _ => None,
        };
        match s {
            LStmt::SetLocal { slot, val, .. } => {
                self.check_red_slot_write(*slot, val);
                let allow = self
                    .red_slots
                    .iter()
                    .any(|&(rs, _, _)| rs == *slot)
                    .then_some(*slot);
                self.expr(val, allow);
                if expr_tainted(val, &self.tainted) {
                    self.tainted.insert(*slot);
                } else {
                    self.tainted.remove(slot);
                }
            }
            LStmt::SetGlobal { gid, val, span, .. } => {
                self.expr(val, None);
                self.check_escape(val, *span);
                if !self.check_red_gid(*gid, *span) {
                    self.record(*gid, true, Foot::Scalar, *span);
                }
            }
            LStmt::SetElem {
                gid,
                idx,
                val,
                span,
                ..
            } => {
                self.expr(idx, None);
                self.expr(val, None);
                self.check_escape(val, *span);
                let foot = classify_idx(idx, self.loop_var);
                self.record(*gid, true, foot, *span);
            }
            LStmt::If { cond, then_, else_ } => {
                self.expr(cond, None);
                let mut cond_slots = Vec::new();
                collect_local_reads(cond, &mut cond_slots);
                let n = cond_slots.len();
                self.guards.extend(cond_slots);
                self.stmts(then_);
                self.stmts(else_);
                self.guards.truncate(self.guards.len() - n);
            }
            LStmt::While { cond, body } => {
                self.expr(cond, None);
                self.while_depth += 1;
                self.stmts(body);
                self.while_depth -= 1;
            }
            LStmt::Return(v) => {
                if let Some(v) = v {
                    self.expr(v, None);
                }
            }
            LStmt::Expr(e) => self.expr(e, None),
            LStmt::Print(parts) => {
                for p in parts {
                    if let LPrint::Val(e) = p {
                        self.expr(e, None);
                    }
                }
            }
            LStmt::Parallel { .. } => {
                // Nested regions are a compile error; nothing to do.
            }
            LStmt::WsFor(w) => self.ws_for(w),
            LStmt::Single { body, span } => {
                let sid = self.next_single;
                self.next_single += 1;
                let old_single = self.single.replace(sid);
                let old_mult = std::mem::replace(&mut self.mult, Mult::One);
                let before = self.accs.len();
                let lints_before = self.lints.len();
                self.stmts(body);
                self.single = old_single;
                self.mult = old_mult;
                self.phase += 1; // implied barrier
                                 // A non-empty `single` around purely-private work changes
                                 // only thread 0's private copies — almost certainly a
                                 // shared/private confusion. (An *empty* single is a
                                 // barrier idiom; a printing single is a print-once idiom;
                                 // both stay silent.)
                let touched = self.accs.len() > before
                    || self.lints.len() > lints_before
                    || body_spawns(body)
                    || body_prints(body);
                if !body.is_empty() && !touched {
                    self.lints.push(Lint::new(
                        LintCode::DeadSync,
                        *span,
                        "`single` around purely-private work: the body touches no shared \
                         data, so only thread 0's private copies change (and every thread \
                         pays the implied barrier)",
                    ));
                }
            }
            LStmt::Critical {
                lock,
                body,
                name,
                span,
            } => {
                self.lock_names.entry(*lock).or_insert_with(|| name.clone());
                for &(l, ls) in &self.locks {
                    self.edges.insert((l, *lock, ls, sk(*span)));
                }
                self.locks.push((*lock, sk(*span)));
                let before = self.accs.len();
                let lints_before = self.lints.len();
                self.stmts(body);
                self.locks.pop();
                let touched = self.accs.len() > before
                    || self.lints.len() > lints_before
                    || body_spawns(body);
                if !touched {
                    self.lints.push(Lint::new(
                        LintCode::DeadSync,
                        *span,
                        "critical section protects no shared access — the lock round-trip \
                         buys nothing",
                    ));
                }
            }
            LStmt::Barrier(span) => {
                self.phase += 1;
                if self.while_depth == 0 && self.task.is_none() {
                    self.barriers.push((self.seq, *span));
                }
            }
            LStmt::Task { site } => {
                self.spawn_seqs.push(self.seq);
                self.spawn_ctxs.entry(*site).or_default().push(SpawnCtx {
                    scope: self.single,
                    one: matches!(self.mult, Mult::One),
                    in_loop: self.while_depth > 0 || self.loop_var.is_some(),
                    from_indirect: self.task.is_some(),
                    seq: self.seq,
                    epoch: self.epoch,
                    phase: self.phase,
                });
            }
            LStmt::Taskwait => self.epoch += 1,
        }
    }

    fn ws_for(&mut self, w: &WsFor) {
        self.expr(&w.lo, None);
        self.expr(&w.hi, None);
        for rs in &w.reds {
            self.red_gids.push((rs.gid, rs.op, rs.span));
            self.red_slots.push((rs.slot, rs.op, rs.span));
        }
        let old_lv = self.loop_var.replace(w.var);
        let old_mult = std::mem::replace(&mut self.mult, Mult::PerIter);
        self.tainted.insert(w.var);
        self.stmts(&w.body);
        self.loop_var = old_lv;
        self.mult = old_mult;
        for _ in &w.reds {
            self.red_gids.pop();
            self.red_slots.pop();
        }
        if w.barrier_after || w.reset_after {
            self.phase += 1; // implied end-of-loop barrier
        }
    }

    fn expr(&mut self, e: &LExpr, allow_red: Option<u16>) {
        match e {
            LExpr::Num(_) => {}
            LExpr::Local(slot) => self.check_red_slot_read(*slot, allow_red),
            LExpr::Global(gid, span) => {
                if !self.check_red_gid(*gid, *span) {
                    self.record(*gid, false, Foot::Scalar, *span);
                }
            }
            LExpr::Elem(gid, idx, span) => {
                self.expr(idx, allow_red);
                let foot = classify_idx(idx, self.loop_var);
                self.record(*gid, false, foot, *span);
            }
            LExpr::Un(_, a) => self.expr(a, allow_red),
            LExpr::Bin(_, a, b, _) => {
                self.expr(a, allow_red);
                self.expr(b, allow_red);
            }
            LExpr::Call(fid, args, _) => {
                for a in args {
                    self.expr(a, allow_red);
                }
                self.instantiate(*fid);
            }
            LExpr::Builtin(_, args) => {
                for a in args {
                    self.expr(a, allow_red);
                }
            }
        }
    }

    /// Splice a callee's summarized accesses into this walk.
    fn instantiate(&mut self, fid: u16) {
        let sums = self.sums;
        let sum = &sums[fid as usize];
        let cur: BTreeSet<u32> = self.locks.iter().map(|&(l, _)| l).collect();
        let callee_accs: Vec<SumAcc> = sum.accs.iter().cloned().collect();
        let fname = self.p.funcs[fid as usize].name.clone();
        // A barrier inside the callee would order its accesses against
        // the caller's — not representable in the linear phase walk, so
        // drop the callee's accesses (provable findings only) and start
        // a fresh phase after the call.
        let drop_accs = sum.has_barrier;
        let hb = sum.has_barrier;
        for acc in callee_accs {
            if let Some(&(_, _, rspan)) = self.red_gids.iter().find(|&&(g, _, _)| g == acc.gid) {
                let name = gname(self.p, acc.gid).to_string();
                self.lints.push(
                    Lint::new(
                        LintCode::ReductionMisuse,
                        unsk(acc.span),
                        format!(
                            "function `{fname}` {} reduction variable `{name}` directly \
                             while the reduction is active — partial per-thread \
                             accumulators are not yet combined",
                            if acc.write { "writes" } else { "reads" },
                        ),
                    )
                    .with_related(rspan, "reduction declared here".to_string()),
                );
                continue;
            }
            if drop_accs {
                continue;
            }
            let mut locks = acc.locks.clone();
            locks.extend(cur.iter().copied());
            self.accs.push(Acc {
                gid: acc.gid,
                write: acc.write,
                foot: acc.foot,
                phase: self.phase,
                mult: self.mult,
                locks,
                single: self.single,
                task: self.task,
                seq: self.seq,
                epoch: self.epoch,
                span: unsk(acc.span),
            });
        }
        for &(l, ls) in &self.locks {
            for &(m, ms) in &sum.acquires {
                self.edges.insert((l, m, ls, ms));
            }
        }
        self.edges.extend(sum.lock_edges.iter().copied());
        for &site in &sum.spawns {
            self.spawn_seqs.push(self.seq);
            self.spawn_ctxs.entry(site).or_default().push(SpawnCtx {
                scope: None,
                one: false,
                in_loop: false,
                from_indirect: true,
                seq: self.seq,
                epoch: self.epoch,
                phase: self.phase,
            });
        }
        if hb {
            self.phase += 1;
        }
    }

    fn record(&mut self, gid: u16, write: bool, foot: Foot, span: Span) {
        self.accs.push(Acc {
            gid,
            write,
            foot,
            phase: self.phase,
            mult: self.mult,
            locks: self.locks.iter().map(|&(l, _)| l).collect(),
            single: self.single,
            task: self.task,
            seq: self.seq,
            epoch: self.epoch,
            span,
        });
    }

    /// Direct access to a gid under an active reduction → OMP203.
    /// Returns true when the access was reported (and must not also be
    /// recorded as a plain access).
    fn check_red_gid(&mut self, gid: u16, span: Span) -> bool {
        if let Some(&(_, _, rspan)) = self.red_gids.iter().find(|&&(g, _, _)| g == gid) {
            let name = gname(self.p, gid).to_string();
            self.lints.push(
                Lint::new(
                    LintCode::ReductionMisuse,
                    span,
                    format!("`{name}` is accessed directly while a reduction on it is active"),
                )
                .with_related(rspan, "reduction declared here".to_string()),
            );
            return true;
        }
        false
    }

    /// `slot = <val>` where slot is a reduction accumulator: `+`/`*`
    /// reductions must keep the `x = x op e` shape; `min`/`max` writes
    /// must sit under a comparison that read the accumulator.
    fn check_red_slot_write(&mut self, slot: u16, val: &LExpr) {
        use crate::ast::BinOp;
        let Some(&(_, op, rspan)) = self.red_slots.iter().find(|&&(s, _, _)| s == slot) else {
            return;
        };
        let ok = match op {
            RedOp::Sum | RedOp::Prod => {
                let (a, b) = match op {
                    RedOp::Sum => (BinOp::Add, BinOp::Sub),
                    _ => (BinOp::Mul, BinOp::Div),
                };
                match val {
                    LExpr::Bin(o, l, r, _) if *o == a => {
                        matches!(**l, LExpr::Local(s) if s == slot)
                            || matches!(**r, LExpr::Local(s) if s == slot)
                    }
                    LExpr::Bin(o, l, _, _) if *o == b => {
                        matches!(**l, LExpr::Local(s) if s == slot)
                    }
                    _ => false,
                }
            }
            // min/max: accept any write guarded by a comparison that
            // read the accumulator (`if (r > m) m = r;` — jacobi).
            RedOp::Min | RedOp::Max => self.guards.contains(&slot),
        };
        if !ok {
            let opname = match op {
                RedOp::Sum => "+",
                RedOp::Prod => "*",
                RedOp::Min => "min",
                RedOp::Max => "max",
            };
            self.lints.push(
                Lint::new(
                    LintCode::ReductionMisuse,
                    self.stmt_span.unwrap_or(rspan),
                    format!(
                        "reduction accumulator is assigned outside its `{opname}` \
                         combining pattern — the per-thread partial result is \
                         overwritten, not combined",
                    ),
                )
                .with_related(rspan, "reduction declared here".to_string()),
            );
        }
    }

    /// Reading a `+`/`*` accumulator outside its own combining statement
    /// observes an uncombined per-thread partial sum.
    fn check_red_slot_read(&mut self, slot: u16, allow_red: Option<u16>) {
        if allow_red == Some(slot) || self.guards.contains(&slot) {
            return;
        }
        if let Some(&(_, op, rspan)) = self.red_slots.iter().find(|&&(s, _, _)| s == slot) {
            if matches!(op, RedOp::Sum | RedOp::Prod) {
                self.lints.push(
                    Lint::new(
                        LintCode::ReductionMisuse,
                        self.stmt_span.unwrap_or(rspan),
                        "reduction accumulator is read outside its combining operation — \
                         it holds an uncombined per-thread partial value there",
                    )
                    .with_related(rspan, "reduction declared here".to_string()),
                );
            }
        }
    }

    /// A thread-dependent value held in a privatized slot flowing into
    /// shared storage unprotected → OMP204.
    fn check_escape(&mut self, val: &LExpr, span: Span) {
        if !self.locks.is_empty() || self.single.is_some() {
            return;
        }
        let mut reads = Vec::new();
        collect_local_reads(val, &mut reads);
        if reads
            .iter()
            .any(|s| self.privs.contains(s) && self.tainted.contains(s))
        {
            self.lints.push(Lint::new(
                LintCode::PrivateEscape,
                span,
                "a private copy holding a thread-dependent value is stored to shared \
                 memory unprotected — each thread overwrites the cell with its own \
                 diverged copy (last writer wins, nondeterministically)",
            ));
        }
    }
}

fn collect_local_reads(e: &LExpr, out: &mut Vec<u16>) {
    match e {
        LExpr::Local(s) => out.push(*s),
        LExpr::Elem(_, idx, _) => collect_local_reads(idx, out),
        LExpr::Un(_, a) => collect_local_reads(a, out),
        LExpr::Bin(_, a, b, _) => {
            collect_local_reads(a, out);
            collect_local_reads(b, out);
        }
        LExpr::Call(_, args, _) | LExpr::Builtin(_, args) => {
            for a in args {
                collect_local_reads(a, out);
            }
        }
        LExpr::Num(_) | LExpr::Global(..) => {}
    }
}

fn expr_tainted(e: &LExpr, tainted: &HashSet<u16>) -> bool {
    match e {
        LExpr::Num(_) | LExpr::Global(..) => false,
        LExpr::Local(s) => tainted.contains(s),
        LExpr::Elem(_, idx, _) => expr_tainted(idx, tainted),
        LExpr::Un(_, a) => expr_tainted(a, tainted),
        LExpr::Bin(_, a, b, _) => expr_tainted(a, tainted) || expr_tainted(b, tainted),
        LExpr::Call(..) => false,
        LExpr::Builtin(b, args) => {
            matches!(b, Builtin::ThreadNum | Builtin::Wtime)
                || args.iter().any(|a| expr_tainted(a, tainted))
        }
    }
}

fn body_spawns(stmts: &[LStmt]) -> bool {
    stmts.iter().any(|s| match s {
        LStmt::Task { .. } => true,
        LStmt::If { then_, else_, .. } => body_spawns(then_) || body_spawns(else_),
        LStmt::While { body, .. } => body_spawns(body),
        LStmt::Single { body, .. } | LStmt::Critical { body, .. } => body_spawns(body),
        LStmt::WsFor(w) => body_spawns(&w.body),
        _ => false,
    })
}

fn body_prints(stmts: &[LStmt]) -> bool {
    stmts.iter().any(|s| match s {
        LStmt::Print(_) => true,
        LStmt::If { then_, else_, .. } => body_prints(then_) || body_prints(else_),
        LStmt::While { body, .. } => body_prints(body),
        LStmt::Single { body, .. } | LStmt::Critical { body, .. } => body_prints(body),
        LStmt::WsFor(w) => body_prints(&w.body),
        _ => false,
    })
}

// ---------------------------------------------------------------------
// Pairwise race detection
// ---------------------------------------------------------------------

fn pair_lints(p: &LProgram, accs: &[Acc], lints: &mut Vec<Lint>) {
    // Self-races: one statement, many executors, same cell.
    for a in accs {
        if !a.write || !a.locks.is_empty() || a.single.is_some() {
            continue;
        }
        let (racy, who) = match a.mult {
            Mult::Team => (
                self_overlap(a.foot),
                "every thread of the team executes this write",
            ),
            Mult::PerIter => (
                self_overlap(a.foot),
                "work-shared iterations on different threads all write this location",
            ),
            Mult::One => (false, ""),
            Mult::Task => (
                a.task.is_some_and(|t| t.multi) && self_overlap(a.foot),
                "multiple task instances execute this write concurrently",
            ),
        };
        if racy {
            let mut lint = Lint::new(
                LintCode::SharedWriteRace,
                a.span,
                format!(
                    "unsynchronized write to shared `{}`: {who}, with no `critical`, \
                     `single` or `reduction` protecting it",
                    gname(p, a.gid),
                ),
            );
            if let (Mult::Task, Some(t)) = (a.mult, a.task) {
                lint = lint.with_related(
                    p.tasks[t.site as usize].span,
                    "the racing task instances come from here".to_string(),
                );
            }
            lints.push(lint);
        }
    }

    // Cross-statement pairs.
    for (i, a) in accs.iter().enumerate() {
        for b in &accs[i + 1..] {
            if !conflict(a, b) {
                continue;
            }
            let name = gname(p, a.gid);
            if a.write && b.write {
                let (x, y) = if sk(a.span) <= sk(b.span) {
                    (a, b)
                } else {
                    (b, a)
                };
                if sk(x.span) == sk(y.span) {
                    continue; // same statement: the self-race rule owns it
                }
                lints.push(
                    Lint::new(
                        LintCode::SharedWriteRace,
                        x.span,
                        format!(
                            "two unordered writes to shared `{name}` can land on the \
                             same location from different threads",
                        ),
                    )
                    .with_related(y.span, "conflicting write".to_string()),
                );
            } else {
                let (wr, rd) = if a.write { (a, b) } else { (b, a) };
                lints.push(
                    Lint::new(
                        LintCode::ReadWriteRace,
                        wr.span,
                        format!(
                            "write to shared `{name}` races with an unordered read — no \
                             barrier separates them on any path",
                        ),
                    )
                    .with_related(rd.span, "unordered read".to_string()),
                );
            }
        }
    }
}

fn conflict(a: &Acc, b: &Acc) -> bool {
    if a.gid != b.gid || (!a.write && !b.write) {
        return false;
    }
    if !a.locks.is_disjoint(&b.locks) {
        return false; // a common lock serializes them
    }
    if !overlap(a.foot, b.foot) {
        return false;
    }
    match (a.task, b.task) {
        (None, None) => {
            if a.phase != b.phase {
                return false; // a barrier orders them
            }
            // All `single` bodies run on thread 0: program-ordered.
            !(a.single.is_some() && b.single.is_some())
        }
        (Some(t), Some(u)) => {
            // Two accesses of the same single-instance task body are
            // program-ordered on the executing thread.
            !(t.site == u.site && !t.multi && !u.multi)
        }
        (Some(t), None) | (None, Some(t)) => {
            let n = if a.task.is_some() { b } else { a };
            // Barrier-ordered before the spawn?
            if n.phase < t.spawn_phase {
                return false;
            }
            // In the spawning `single` block: before the spawn, or
            // after a taskwait that joined the task.
            if let Some(scope) = t.scope {
                if n.single == Some(scope) && (n.seq < t.spawn_seq || n.epoch > t.spawn_epoch) {
                    return false;
                }
            }
            true
        }
    }
}

// ---------------------------------------------------------------------
// Lock order (OMP205)
// ---------------------------------------------------------------------

fn lock_order_lints(
    edges: &BTreeSet<LockEdge>,
    lock_names: &BTreeMap<u32, Option<String>>,
    lints: &mut Vec<Lint>,
) {
    let describe = |l: u32| -> String {
        match lock_names.get(&l) {
            Some(Some(n)) => format!("`critical({n})`"),
            _ => "the unnamed `critical`".to_string(),
        }
    };
    let mut adj: BTreeMap<u32, BTreeSet<u32>> = BTreeMap::new();
    for &(a, b, _, _) in edges {
        if a == b {
            continue;
        }
        adj.entry(a).or_default().insert(b);
    }
    // Self-nesting deadlocks immediately (the runtime lock is not
    // reentrant).
    let mut seen_self: BTreeSet<u32> = BTreeSet::new();
    for &(a, b, os, is) in edges {
        if a == b && seen_self.insert(a) {
            lints.push(
                Lint::new(
                    LintCode::LockOrder,
                    unsk(is),
                    format!(
                        "{} is entered while already held — self-deadlock (the lock is \
                         not reentrant)",
                        describe(a)
                    ),
                )
                .with_related(unsk(os), "outer acquisition".to_string()),
            );
        }
    }
    // a→b plus a path b→…→a means two threads can deadlock acquiring
    // in opposite orders.
    let reachable = |from: u32, to: u32| -> bool {
        let mut seen = BTreeSet::new();
        let mut stack = vec![from];
        while let Some(x) = stack.pop() {
            if x == to {
                return true;
            }
            if !seen.insert(x) {
                continue;
            }
            if let Some(next) = adj.get(&x) {
                stack.extend(next.iter().copied());
            }
        }
        false
    };
    let mut reported: BTreeSet<(u32, u32)> = BTreeSet::new();
    for &(a, b, _os, is) in edges {
        if a == b || !reachable(b, a) {
            continue;
        }
        let key = (a.min(b), a.max(b));
        if !reported.insert(key) {
            continue;
        }
        // Find the reverse witness for the related span.
        let rev = edges
            .iter()
            .find(|&&(x, y, _, _)| x == b && y == a)
            .map(|&(_, _, _, ris)| ris);
        let mut l = Lint::new(
            LintCode::LockOrder,
            unsk(is),
            format!(
                "{} nests inside {} here, but the opposite order exists elsewhere — two \
                 threads can deadlock",
                describe(b),
                describe(a),
            ),
        );
        if let Some(ris) = rev {
            l = l.with_related(unsk(ris), "conflicting nesting".to_string());
        }
        lints.push(l);
    }
}

// ---------------------------------------------------------------------
// Dead / sequential criticals (OMP206) and reachability
// ---------------------------------------------------------------------

fn collect_calls(stmts: &[LStmt], out: &mut BTreeSet<u16>) {
    fn expr(e: &LExpr, out: &mut BTreeSet<u16>) {
        match e {
            LExpr::Call(fid, args, _) => {
                out.insert(*fid);
                for a in args {
                    expr(a, out);
                }
            }
            LExpr::Un(_, a) | LExpr::Elem(_, a, _) => expr(a, out),
            LExpr::Bin(_, a, b, _) => {
                expr(a, out);
                expr(b, out);
            }
            LExpr::Builtin(_, args) => {
                for a in args {
                    expr(a, out);
                }
            }
            _ => {}
        }
    }
    for s in stmts {
        match s {
            LStmt::SetLocal { val, .. } | LStmt::SetGlobal { val, .. } => expr(val, out),
            LStmt::SetElem { idx, val, .. } => {
                expr(idx, out);
                expr(val, out);
            }
            LStmt::If { cond, then_, else_ } => {
                expr(cond, out);
                collect_calls(then_, out);
                collect_calls(else_, out);
            }
            LStmt::While { cond, body } => {
                expr(cond, out);
                collect_calls(body, out);
            }
            LStmt::Return(Some(e)) | LStmt::Expr(e) => expr(e, out),
            LStmt::Print(parts) => {
                for p in parts {
                    if let LPrint::Val(e) = p {
                        expr(e, out);
                    }
                }
            }
            LStmt::Single { body, .. } | LStmt::Critical { body, .. } => collect_calls(body, out),
            LStmt::WsFor(w) => {
                expr(&w.lo, out);
                expr(&w.hi, out);
                collect_calls(&w.body, out);
            }
            _ => {}
        }
    }
}

fn closure(p: &LProgram, seeds: BTreeSet<u16>) -> BTreeSet<u16> {
    let mut seen = BTreeSet::new();
    let mut stack: Vec<u16> = seeds.into_iter().collect();
    while let Some(f) = stack.pop() {
        if !seen.insert(f) {
            continue;
        }
        let mut calls = BTreeSet::new();
        collect_calls(&p.funcs[f as usize].body, &mut calls);
        stack.extend(calls);
    }
    seen
}

/// Functions reachable from parallel context (region or task bodies).
fn par_reachable(p: &LProgram) -> BTreeSet<u16> {
    let mut seeds = BTreeSet::new();
    for r in &p.regions {
        collect_calls(&r.body, &mut seeds);
    }
    for t in &p.tasks {
        collect_calls(&t.body, &mut seeds);
    }
    closure(p, seeds)
}

/// Criticals inside par-reachable functions whose bodies touch no
/// shared data. (Region/task bodies are covered during the region walk.)
fn dead_critical_lints(p: &LProgram, sums: &[FnSum], par: &BTreeSet<u16>, lints: &mut Vec<Lint>) {
    fn touches_shared(stmts: &[LStmt], sums: &[FnSum]) -> bool {
        fn expr(e: &LExpr, sums: &[FnSum]) -> bool {
            match e {
                LExpr::Global(..) | LExpr::Elem(..) => true,
                LExpr::Call(fid, args, _) => {
                    sums[*fid as usize].has_shared
                        || !sums[*fid as usize].spawns.is_empty()
                        || args.iter().any(|a| expr(a, sums))
                }
                LExpr::Un(_, a) => expr(a, sums),
                LExpr::Bin(_, a, b, _) => expr(a, sums) || expr(b, sums),
                LExpr::Builtin(_, args) => args.iter().any(|a| expr(a, sums)),
                _ => false,
            }
        }
        stmts.iter().any(|s| match s {
            LStmt::SetGlobal { .. } | LStmt::SetElem { .. } | LStmt::Task { .. } => true,
            LStmt::SetLocal { val, .. } => expr(val, sums),
            LStmt::If { cond, then_, else_ } => {
                expr(cond, sums) || touches_shared(then_, sums) || touches_shared(else_, sums)
            }
            LStmt::While { cond, body } => expr(cond, sums) || touches_shared(body, sums),
            LStmt::Return(Some(e)) | LStmt::Expr(e) => expr(e, sums),
            LStmt::Print(parts) => parts.iter().any(|p| match p {
                LPrint::Val(e) => expr(e, sums),
                LPrint::Str(_) => false,
            }),
            LStmt::Single { body, .. } | LStmt::Critical { body, .. } => touches_shared(body, sums),
            LStmt::WsFor(w) => touches_shared(&w.body, sums),
            _ => false,
        })
    }
    fn walk(stmts: &[LStmt], sums: &[FnSum], lints: &mut Vec<Lint>) {
        for s in stmts {
            match s {
                LStmt::Critical { body, span, .. } => {
                    if !touches_shared(body, sums) {
                        lints.push(Lint::new(
                            LintCode::DeadSync,
                            *span,
                            "critical section protects no shared access — the lock \
                             round-trip buys nothing",
                        ));
                    }
                    walk(body, sums, lints);
                }
                LStmt::If { then_, else_, .. } => {
                    walk(then_, sums, lints);
                    walk(else_, sums, lints);
                }
                LStmt::While { body, .. } => walk(body, sums, lints),
                LStmt::Single { body, .. } => walk(body, sums, lints),
                LStmt::WsFor(w) => walk(&w.body, sums, lints),
                _ => {}
            }
        }
    }
    for &fid in par {
        walk(&p.funcs[fid as usize].body, sums, lints);
    }
}

/// Criticals in purely sequential code: one thread runs there, the
/// runtime even elides the lock — the construct is dead weight.
fn seq_critical_lints(p: &LProgram, par: &BTreeSet<u16>, lints: &mut Vec<Lint>) {
    let seq = closure(p, BTreeSet::from([p.main_fn as u16]));
    fn walk(stmts: &[LStmt], lints: &mut Vec<Lint>) {
        for s in stmts {
            match s {
                LStmt::Critical { body, span, .. } => {
                    lints.push(Lint::new(
                        LintCode::DeadSync,
                        *span,
                        "`critical` in sequential code: a single thread executes here, \
                         so the section orders nothing (the runtime elides the lock)",
                    ));
                    walk(body, lints);
                }
                LStmt::If { then_, else_, .. } => {
                    walk(then_, lints);
                    walk(else_, lints);
                }
                LStmt::While { body, .. } => walk(body, lints),
                _ => {}
            }
        }
    }
    for &fid in &seq {
        if par.contains(&fid) {
            continue;
        }
        walk(&p.funcs[fid as usize].body, lints);
    }
}

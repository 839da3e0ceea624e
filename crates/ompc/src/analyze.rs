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
//! - **Summaries** ([`Sum`]): accesses, acquired locks, spawned task
//!   sites, callees, prints and barriers of a block, callees included.
//!   Each function's is computed to a fixpoint so recursion (`fib`,
//!   `qsort`) converges, and is instantiated at call sites with the
//!   caller's held locks added. Every "does this block touch shared
//!   data / spawn / print / call …" question reads one; a region's
//!   callees are the ones its walk instantiates.

use crate::diag::Span;
use crate::ir::{visit_stmts, Builtin, LExpr, LProgram, LRegion, LStmt, WsFor};
use crate::lints::{Lint, LintCode};
use nomp::RedOp;
use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};

/// Run every check over a lowered program. Lints come back sorted by
/// source position and deduplicated; levels are all `Warn` (promotion to
/// `Deny` happens at the reporting surface).
pub(crate) fn analyze(p: &LProgram) -> Vec<Lint> {
    let sums = fn_summaries(p);
    let task_sums: Vec<Sum> = p.tasks.iter().map(|t| block_sum(&t.body, &sums)).collect();
    let mut lints: Vec<Lint> = Vec::new();
    let mut edges: BTreeSet<LockEdge> = BTreeSet::new();
    let mut lock_names: BTreeMap<u32, Option<String>> = BTreeMap::new();

    // Functions reachable from parallel context: called from a region
    // (as its walk finds) or from any task body.
    let mut par: BTreeSet<u16> = task_sums.iter().flat_map(|t| &t.callees).copied().collect();
    for r in &p.regions {
        par.extend(analyze_region(
            p,
            &sums,
            &task_sums,
            r,
            &mut lints,
            &mut edges,
            &mut lock_names,
        ));
    }

    // Lock-order edges inside functions reachable from parallel context
    // (sequential criticals are elided by the runtime — no deadlock).
    for &fid in &par {
        edges.extend(&sums[fid as usize].lock_edges);
    }
    lock_order_lints(&edges, &lock_names, &mut lints);
    fn_critical_lints(p, &sums, &par, &mut lints);

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
    e.any(&|n| match n {
        // Calls and thread-dependent builtins are never invariant.
        LExpr::Local(_) | LExpr::Call(..) => Some(true),
        LExpr::Builtin(Builtin::ThreadNum | Builtin::Wtime, _) => Some(true),
        _ => None,
    })
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

/// What a block does, callees included.
#[derive(Debug, Default, Clone, PartialEq)]
struct Sum {
    accs: BTreeSet<SumAcc>,
    /// Task sites spawned (directly or via callees).
    spawns: BTreeSet<u16>,
    /// Critical sections acquired anywhere inside (lock, span).
    acquires: BTreeSet<(u32, (u32, u32))>,
    lock_edges: BTreeSet<LockEdge>,
    /// Functions called, transitively.
    callees: BTreeSet<u16>,
    has_barrier: bool,
    /// A `print` runs (directly or via callees).
    prints: bool,
}

fn fn_summaries(p: &LProgram) -> Vec<Sum> {
    let mut sums = vec![Sum::default(); p.funcs.len()];
    // Recursion converges because every field only grows and spans/gids
    // are finite.
    loop {
        let mut changed = false;
        for fid in 0..p.funcs.len() {
            let cur = block_sum(&p.funcs[fid].body, &sums);
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

/// The summary of one block, given the functions' summaries. Region and
/// task bodies are outlined, so a `parallel` or `task` statement
/// contributes only its spawn.
fn block_sum(stmts: &[LStmt], sums: &[Sum]) -> Sum {
    let mut out = Sum::default();
    sum_stmts(stmts, sums, &mut Vec::new(), &mut out);
    out
}

fn sum_stmts(stmts: &[LStmt], sums: &[Sum], held: &mut Vec<(u32, (u32, u32))>, out: &mut Sum) {
    for s in stmts {
        for e in s.exprs() {
            sum_expr(e, sums, held, out);
        }
        match s {
            LStmt::SetGlobal { gid, span, .. } => {
                sum_acc(out, *gid, true, Foot::Scalar, held, *span)
            }
            LStmt::SetElem { gid, idx, span, .. } => {
                sum_acc(out, *gid, true, classify_idx(idx, None), held, *span)
            }
            LStmt::Print(_) => out.prints = true,
            LStmt::Critical { lock, span, .. } => {
                for &(l, ls) in held.iter() {
                    out.lock_edges.insert((l, *lock, ls, sk(*span)));
                }
                out.acquires.insert((*lock, sk(*span)));
                held.push((*lock, sk(*span)));
            }
            LStmt::Barrier(_) => out.has_barrier = true,
            LStmt::Task { site } => {
                out.spawns.insert(*site);
            }
            _ => {}
        }
        for b in s.blocks() {
            sum_stmts(b, sums, held, out);
        }
        if matches!(s, LStmt::Critical { .. }) {
            held.pop();
        }
    }
}

fn sum_expr(e: &LExpr, sums: &[Sum], held: &[(u32, (u32, u32))], out: &mut Sum) {
    e.visit(&mut |n| match n {
        LExpr::Global(gid, span) => sum_acc(out, *gid, false, Foot::Scalar, held, *span),
        LExpr::Elem(gid, idx, span) => {
            sum_acc(out, *gid, false, classify_idx(idx, None), held, *span)
        }
        LExpr::Call(fid, ..) => {
            let callee = &sums[*fid as usize];
            let cur: BTreeSet<u32> = held.iter().map(|&(l, _)| l).collect();
            for acc in &callee.accs {
                let mut locks = acc.locks.clone();
                locks.extend(&cur);
                out.accs.insert(SumAcc {
                    locks,
                    ..acc.clone()
                });
            }
            out.spawns.extend(&callee.spawns);
            out.acquires.extend(&callee.acquires);
            out.lock_edges.extend(&callee.lock_edges);
            for &(l, ls) in held {
                for &(m, ms) in &callee.acquires {
                    out.lock_edges.insert((l, m, ls, ms));
                }
            }
            out.callees.insert(*fid);
            out.callees.extend(&callee.callees);
            out.has_barrier |= callee.has_barrier;
            out.prints |= callee.prints;
        }
        _ => {}
    });
}

fn sum_acc(
    out: &mut Sum,
    gid: u16,
    write: bool,
    foot: Foot,
    held: &[(u32, (u32, u32))],
    span: Span,
) {
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
    sums: &'a [Sum],
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
    /// Functions the walk calls, transitively.
    callees: BTreeSet<u16>,
}

/// Walk one region and the task bodies it reaches; returns the functions
/// they call, transitively.
fn analyze_region(
    p: &LProgram,
    sums: &[Sum],
    task_sums: &[Sum],
    r: &LRegion,
    lints: &mut Vec<Lint>,
    edges: &mut BTreeSet<LockEdge>,
    lock_names: &mut BTreeMap<u32, Option<String>>,
) -> BTreeSet<u16> {
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
        callees: BTreeSet::new(),
    };
    for rs in &r.reds {
        w.red_gids.push((rs.site.gid, rs.site.op, rs.span));
        w.red_slots.push((rs.slot, rs.site.op, rs.span));
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
        for &s2 in &task_sums[site as usize].spawns {
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
    // A plain region defers its barriers, so its join absorbs a dead one
    // (DESIGN.md §2j); a task region runs each where it stands.
    let cost = if r.uses_tasks {
        "it still costs a full round of sync traffic"
    } else {
        "the join absorbs it, but it is dead code"
    };
    for &(bseq, bspan) in &w.barriers {
        let live = accs.iter().any(|a| a.task.is_none() && a.seq > bseq)
            || w.spawn_seqs.iter().any(|&s| s > bseq);
        if !live {
            w.lints.push(
                Lint::new(
                    LintCode::DeadSync,
                    bspan,
                    format!(
                        "barrier orders no shared access: nothing after it in this region \
                         touches shared data ({cost})"
                    ),
                )
                .with_related(r.span, "in the parallel region starting here".to_string()),
            );
        }
    }
    w.callees
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
                let n = self.guards.len();
                cond.visit(&mut |e| {
                    if let LExpr::Local(slot) = e {
                        self.guards.push(*slot);
                    }
                });
                self.stmts(then_);
                self.stmts(else_);
                self.guards.truncate(n);
            }
            LStmt::While { cond, body } => {
                self.expr(cond, None);
                self.while_depth += 1;
                self.stmts(body);
                self.while_depth -= 1;
            }
            LStmt::Return(_) | LStmt::Expr(_) | LStmt::Print(_) => {
                for e in s.exprs() {
                    self.expr(e, None);
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
                let lints_before = self.lints.len();
                self.stmts(body);
                self.single = old_single;
                self.mult = old_mult;
                self.phase += 1; // implied barrier

                // A non-empty `single` around purely-private work changes
                // only thread 0's private copies — almost certainly a
                // shared/private confusion. (An *empty* single is a
                // barrier idiom; a printing single is a print-once idiom;
                // both stay silent. A body that already drew a finding is
                // not reported twice.)
                let b = block_sum(body, self.sums);
                let touched = self.lints.len() > lints_before
                    || !b.accs.is_empty()
                    || !b.spawns.is_empty()
                    || b.prints;
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
                let lints_before = self.lints.len();
                self.stmts(body);
                self.locks.pop();
                // A body that already drew a finding is not reported twice.
                if self.lints.len() == lints_before {
                    self.lints.extend(dead_critical(body, *span, self.sums));
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
            self.red_gids.push((rs.site.gid, rs.site.op, rs.span));
            self.red_slots.push((rs.slot, rs.site.op, rs.span));
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
        e.for_each_operand(|o| self.expr(o, allow_red));
        match e {
            LExpr::Local(slot) => self.check_red_slot_read(*slot, allow_red),
            LExpr::Global(gid, span) => {
                if !self.check_red_gid(*gid, *span) {
                    self.record(*gid, false, Foot::Scalar, *span);
                }
            }
            LExpr::Elem(gid, idx, span) => {
                let foot = classify_idx(idx, self.loop_var);
                self.record(*gid, false, foot, *span);
            }
            LExpr::Call(fid, ..) => self.instantiate(*fid),
            LExpr::Num(_) | LExpr::Un(..) | LExpr::Bin(..) | LExpr::Builtin(..) => {}
        }
    }

    /// Splice a callee's summarized accesses into this walk.
    fn instantiate(&mut self, fid: u16) {
        let sums = self.sums;
        let sum = &sums[fid as usize];
        self.callees.insert(fid);
        self.callees.extend(&sum.callees);
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
        let (privs, tainted) = (&self.privs, &self.tainted);
        if val.any(&|n| match n {
            LExpr::Local(s) => Some(privs.contains(s) && tainted.contains(s)),
            _ => None,
        }) {
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

/// Does the value depend on the executing thread? A call's result is
/// taken as not (its body is summarized, not evaluated).
fn expr_tainted(e: &LExpr, tainted: &HashSet<u16>) -> bool {
    e.any(&|n| match n {
        LExpr::Local(s) => Some(tainted.contains(s)),
        LExpr::Call(..) => Some(false),
        LExpr::Builtin(Builtin::ThreadNum | Builtin::Wtime, _) => Some(true),
        _ => None,
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
// Dead / sequential criticals in functions (OMP206)
// ---------------------------------------------------------------------

/// OMP206 for a `critical` whose body touches no shared data and spawns
/// no task, reached through calls included: the lock round-trip orders
/// nothing.
fn dead_critical(body: &[LStmt], span: Span, sums: &[Sum]) -> Option<Lint> {
    let b = block_sum(body, sums);
    (b.accs.is_empty() && b.spawns.is_empty()).then(|| {
        Lint::new(
            LintCode::DeadSync,
            span,
            "critical section protects no shared access — the lock round-trip buys nothing",
        )
    })
}

/// OMP206 on the criticals of functions (region and task bodies get
/// theirs in the region walk). In a function reachable from parallel
/// context a dead section is flagged; in one reachable only from
/// sequential code every section is: a single thread runs there, and the
/// runtime even elides the lock.
fn fn_critical_lints(p: &LProgram, sums: &[Sum], par: &BTreeSet<u16>, lints: &mut Vec<Lint>) {
    let seq = &sums[p.main_fn].callees;
    for (fid, f) in (0u16..).zip(&p.funcs) {
        let in_par = par.contains(&fid);
        let in_seq = fid as usize == p.main_fn || seq.contains(&fid);
        if !in_par && !in_seq {
            continue;
        }
        visit_stmts(&f.body, &mut |s| {
            if let LStmt::Critical { body, span, .. } = s {
                if in_par {
                    lints.extend(dead_critical(body, *span, sums));
                } else {
                    lints.push(Lint::new(
                        LintCode::DeadSync,
                        *span,
                        "`critical` in sequential code: a single thread executes here, \
                         so the section orders nothing (the runtime elides the lock)",
                    ));
                }
            }
        });
    }
}

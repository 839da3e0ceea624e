//! Lowers a `critical` section that only accumulates into shared scalars
//! to a reduction that rides the region's join (DESIGN.md §2h).
//!
//! The source paper's translator turns every `critical` into a
//! TreadMarks lock. A section whose body is nothing but updates
//! `g = g ⊕ e`, of globals that parallel code touches in no other way,
//! needs no lock: each thread adds `e` into a private accumulator, and
//! the region's join gathers the accumulators like a `reduction(⊕:g)`.
//!
//! **The rule.** A global scalar `g` is *accumulate-only* when every
//! access to it from parallel context — region and task bodies and every
//! function they reach through calls — is an update `g = g ⊕ e` in a
//! `critical` whose body is only such updates, and
//! * `g` is a `double`: an `int` global truncates every store, and
//!   truncating a private accumulator that starts at the identity does
//!   not give what truncating `g` after each update gives;
//! * `⊕` is one operator for every update of `g` (`+`/`-` are Sum, `*`
//!   is Prod);
//! * `g` occurs once in the update, as a leaf whose path from the root
//!   passes only `⊕` nodes (never the right operand of a `-`, never a
//!   unary operator or a builtin);
//! * `e` calls no function and reads no global that parallel code writes;
//! * no `reduction` clause names `g`.
//!
//! Sequential code may read and write `g` freely: in sequential context
//! a lowered section writes `g` directly, as an unlowered one does.
//!
//! [`plan`] decides which globals qualify and which regions reach them;
//! it changes no statement, so the analyzer reads the program as
//! written. Codegen asks [`lowered`] which sections to compile without
//! their lock.

use crate::ast::BinOp;
use crate::ir::*;
use nomp::{RedOp, Reduce};

/// One update `g = g ⊕ e` of a section whose body is only updates.
struct Update {
    gid: u16,
    op: RedOp,
    /// Globals `e` reads, scalars and arrays.
    reads: Vec<u16>,
}

/// What one body (a function, region or task) holds, from one walk.
#[derive(Default)]
struct Facts {
    calls: Vec<u16>,
    spawns: Vec<u16>,
    /// Globals stored to, scalars and arrays.
    written: Vec<u16>,
    /// Scalar globals accessed other than by an update in `sections`.
    touched: Vec<u16>,
    /// Globals named by an interior loop's `reduction` clause.
    reduced: Vec<u16>,
    /// The `critical` sections whose bodies are only updates.
    sections: Vec<Vec<Update>>,
}

impl Facts {
    fn of(body: &[LStmt]) -> Facts {
        let mut f = Facts::default();
        f.walk(body);
        f
    }

    fn walk(&mut self, stmts: &[LStmt]) {
        for s in stmts {
            match s {
                LStmt::Critical { body, .. } if !body.is_empty() => {
                    if let Some(ups) = body.iter().map(update).collect::<Option<Vec<_>>>() {
                        for u in &ups {
                            self.written.push(u.gid);
                            self.touched.extend(&u.reads);
                        }
                        self.sections.push(ups);
                        continue;
                    }
                }
                LStmt::SetGlobal { gid, .. } => {
                    self.written.push(*gid);
                    self.touched.push(*gid);
                }
                LStmt::SetElem { gid, .. } => self.written.push(*gid),
                LStmt::Task { site } => self.spawns.push(*site),
                LStmt::WsFor(w) => self.reduced.extend(w.reds.iter().map(|r| r.site.gid)),
                _ => {}
            }
            for e in s.exprs() {
                self.note_reads(e);
            }
            for b in s.blocks() {
                self.walk(b);
            }
        }
    }

    fn note_reads(&mut self, e: &LExpr) {
        e.visit(&mut |n| match n {
            LExpr::Global(g, _) => self.touched.push(*g),
            LExpr::Call(f, ..) => self.calls.push(*f),
            _ => {}
        });
    }
}

/// `s` as an update `g = g ⊕ e` whose `e` calls no function.
fn update(s: &LStmt) -> Option<Update> {
    let LStmt::SetGlobal { gid, val, .. } = s else {
        return None;
    };
    let op = chain_op(*gid, val)?;
    let (mut reads, mut calls) = (Vec::new(), false);
    val.visit(&mut |n| match n {
        LExpr::Global(g, _) | LExpr::Elem(g, ..) if g != gid => reads.push(*g),
        LExpr::Call(..) => calls = true,
        _ => {}
    });
    (!calls).then_some(Update {
        gid: *gid,
        op,
        reads,
    })
}

/// Probe for [`LExpr::any`]: is this node the scalar `gid`?
fn is_global(gid: u16) -> impl Fn(&LExpr) -> Option<bool> {
    move |e| match e {
        LExpr::Global(g, _) => Some(*g == gid),
        _ => None,
    }
}

/// The operator `val` applies to `gid` as an update: `gid` occurs once,
/// as a leaf reached from the root through `+`/`-` nodes only (never
/// the right operand of a `-`), or through `*` nodes only. A path that
/// meets any other node on the way (`-g`, `fabs(g)`) is no update.
fn chain_op(gid: u16, val: &LExpr) -> Option<RedOp> {
    let mut n = 0;
    val.visit(&mut |e| n += usize::from(matches!(e, LExpr::Global(g, _) if *g == gid)));
    if n != 1 {
        return None;
    }
    let is_g = is_global(gid);
    let (mut e, mut op) = (val, None);
    while let LExpr::Bin(b, x, y, _) = e {
        let this = match b {
            BinOp::Add | BinOp::Sub => RedOp::Sum,
            BinOp::Mul => RedOp::Prod,
            _ => return None,
        };
        if op.is_some_and(|o| o != this) {
            return None;
        }
        op = Some(this);
        e = match (x.any(&is_g), b) {
            (true, _) => x,
            (false, BinOp::Sub) => return None,
            (false, _) => y,
        };
    }
    matches!(e, LExpr::Global(g, _) if *g == gid)
        .then_some(op)
        .flatten()
}

/// `val` with its one `gid` leaf replaced by `op`'s identity: the `e`
/// that `g = g ⊕ e` adds. `val` is an update ([`chain_op`]).
fn contribution(gid: u16, val: &LExpr, op: RedOp) -> LExpr {
    fn put(e: &mut LExpr, is_g: &impl Fn(&LExpr) -> Option<bool>, v: f64) {
        match e {
            LExpr::Bin(_, x, y, _) => put(if x.any(is_g) { x } else { y }, is_g, v),
            LExpr::Global(..) => *e = LExpr::Num(v),
            _ => unreachable!("chain_op admits only `Bin` nodes above `g`"),
        }
    }
    let mut add = val.clone();
    put(&mut add, &is_global(gid), f64::identity(op));
    add
}

/// Fill [`LProgram::accums`] with the accumulate-only globals (their
/// join keys from `first_key` on) and each region's
/// [`LRegion::accums`].
pub(crate) fn plan(l: &mut LProgram, first_key: u32) {
    // Body `b`: function `b`, then region `b - nf`, then task `b - nf - nr`.
    let (nf, nr) = (l.funcs.len(), l.regions.len());
    let facts: Vec<Facts> = (l.funcs.iter().map(|f| &f.body))
        .chain(l.regions.iter().map(|r| &r.body))
        .chain(l.tasks.iter().map(|t| &t.body))
        .map(|b| Facts::of(b))
        .collect();
    let reach = |seeds: std::ops::Range<usize>| {
        let mut seen = vec![false; facts.len()];
        let mut todo: Vec<usize> = seeds.collect();
        while let Some(b) = todo.pop() {
            if !std::mem::replace(&mut seen[b], true) {
                todo.extend(facts[b].calls.iter().map(|&f| f as usize));
                todo.extend(facts[b].spawns.iter().map(|&t| nf + nr + t as usize));
            }
        }
        seen
    };
    let par = reach(nf..facts.len());
    let par_facts = || facts.iter().zip(&par).filter(|(_, &p)| p).map(|(f, _)| f);

    let ng = l.globals.len();
    let mut ok: Vec<bool> = (l.globals.iter())
        .map(|g| matches!(g.kind, LGlobalKind::Scalar { .. }) && !g.trunc)
        .collect();
    let mut written = vec![false; ng];
    let clause_reds = l.regions.iter().flat_map(|r| &r.reds).map(|s| s.site.gid);
    for g in clause_reds.chain(facts.iter().flat_map(|f| f.reduced.iter().copied())) {
        ok[g as usize] = false;
    }
    for f in par_facts() {
        f.touched.iter().for_each(|&g| ok[g as usize] = false);
        f.written.iter().for_each(|&g| written[g as usize] = true);
    }
    let sections: Vec<&[Update]> = par_facts()
        .flat_map(|f| &f.sections)
        .map(|s| &s[..])
        .collect();
    let mut ops: Vec<Option<RedOp>> = vec![None; ng];
    for u in sections.iter().copied().flatten() {
        let g = u.gid as usize;
        match ops[g] {
            Some(op) if op != u.op => ok[g] = false,
            _ => ops[g] = Some(u.op),
        }
    }
    // A section keeps its lock if `e` reads what parallel code writes or
    // one of its globals fails; its updates are then plain accesses, so
    // every global it updates fails too.
    let mut changed = true;
    while changed {
        changed = false;
        for s in &sections {
            let fails =
                |u: &Update| !ok[u.gid as usize] || u.reads.iter().any(|&r| written[r as usize]);
            if s.iter().any(fails) {
                for u in s.iter() {
                    changed |= std::mem::replace(&mut ok[u.gid as usize], false);
                }
            }
        }
    }

    l.accums = (0..ng)
        .filter(|&g| ok[g])
        .filter_map(|g| ops[g].map(|op| (g, op)))
        .zip(first_key..)
        .map(|((g, op), key)| JoinSite {
            op,
            gid: g as u16,
            trunc: false, // `int` globals never qualify
            key,
        })
        .collect();
    if l.accums.is_empty() {
        return;
    }
    for r in 0..nr {
        let seen = reach(nf + r..nf + r + 1);
        let updated = |gid: u16| {
            (facts.iter().zip(&seen))
                .filter(|(_, &s)| s)
                .any(|(f, _)| f.sections.iter().flatten().any(|u| u.gid == gid))
        };
        l.regions[r].accums = (0..l.accums.len() as u16)
            .filter(|&k| updated(l.accums[k as usize].gid))
            .collect();
    }
}

/// What a `critical` body lowers to, if every statement in it is an
/// update of an accumulate-only global: per update, the global's index
/// in [`LProgram::accums`] and the `e` to add.
pub(crate) fn lowered(l: &LProgram, body: &[LStmt]) -> Option<Vec<(usize, LExpr)>> {
    if body.is_empty() || l.accums.is_empty() {
        return None;
    }
    (body.iter())
        .map(|s| {
            let LStmt::SetGlobal { gid, val, .. } = s else {
                return None;
            };
            let k = l.accums.iter().position(|a| a.gid == *gid)?;
            let op = chain_op(*gid, val)?;
            (op == l.accums[k].op).then(|| (k, contribution(*gid, val, op)))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lower(src: &str) -> LProgram {
        let ast = crate::parse::parse(src).unwrap_or_else(|d| panic!("{d}\n{src}"));
        crate::sema::lower(&ast).unwrap_or_else(|d| panic!("{d}\n{src}"))
    }

    /// The accumulate-only globals, and every `critical` of the program
    /// in body order as `name:lowered` or `name:locked` (`-` unnamed).
    fn verdicts(src: &str) -> (Vec<String>, String) {
        let l = lower(src);
        let sites = (l.accums.iter()).map(|a| l.globals[a.gid as usize].name.clone());
        let mut crits = Vec::new();
        let bodies = (l.funcs.iter().map(|f| &f.body))
            .chain(l.regions.iter().map(|r| &r.body))
            .chain(l.tasks.iter().map(|t| &t.body));
        for b in bodies {
            visit_stmts(b, &mut |s| {
                if let LStmt::Critical { body, name, .. } = s {
                    let how = if lowered(&l, body).is_some() {
                        "lowered"
                    } else {
                        "locked"
                    };
                    crits.push(format!("{}:{how}", name.as_deref().unwrap_or("-")));
                }
            });
        }
        (sites.collect(), crits.join(" "))
    }

    #[test]
    fn the_clean_examples_accumulate_without_their_lock() {
        let cases = [
            (
                include_str!("../../../examples/omp/clean/critical_incr.omp"),
                "count",
                "-:lowered",
            ),
            (
                include_str!("../../../examples/omp/clean/task_critical.omp"),
                "count",
                "-:lowered",
            ),
            (
                include_str!("../../../examples/omp/fib.omp"),
                "count",
                "-:lowered",
            ),
            (
                include_str!("../../../examples/omp/clean/critical_calls_spawner.omp"),
                "count",
                "outer:locked red:lowered",
            ),
            (
                include_str!("../../../examples/omp/clean/lock_nested_consistent.omp"),
                "h",
                "outer:locked inner:lowered outer:locked inner:lowered",
            ),
        ];
        for (src, site, want) in cases {
            let (sites, crits) = verdicts(src);
            assert_eq!(
                (&sites[..], &crits[..]),
                (&[site.to_string()][..], want),
                "{src}"
            );
        }
    }

    #[test]
    fn sections_that_do_more_than_accumulate_keep_their_lock() {
        let region = |body: &str| {
            format!(
                "double g;\ndouble h;\ndouble a[4];\nint main() {{\n\
                 #pragma omp parallel\n{{\n{body}\n}}\nreturn 0;\n}}\n"
            )
        };
        let crit = |upd: &str| format!("#pragma omp critical\n{{ {upd} }}");
        let cases = [
            (
                "g read in the region",
                format!("{}\nh = g;", crit("g = g + 1;")),
            ),
            ("g = g * g", crit("g = g * g;")),
            (
                "mixed + and *",
                format!("{}\n{}", crit("g = g + 1;"), crit("g = g * 2;")),
            ),
            ("a print", crit("g = g + 1; print(\"x\");")),
            ("an array element", crit("a[0] = a[0] + 1;")),
            ("g negated", crit("g = 1 - g;")),
            ("g negated inside the sum", crit("g = -g + 1;")),
            ("g under a builtin", crit("g = fabs(g) + 1;")),
            ("g under sqrt in a product", crit("g = sqrt(g) * 2;")),
            ("an int accumulator", crit("g = g + 1;")),
            ("g divided", crit("g = g / 2;")),
            ("e reads what the region writes", crit("g = g + h; h = 1;")),
            ("e calls", crit("g = g + f();")),
            (
                "a nested critical",
                crit(&crit("g = g + 1;").replace("critical", "critical (in)")),
            ),
            ("a reduction clause elsewhere", crit("g = g + 1;")),
        ];
        for (what, body) in cases {
            let mut src = region(&body);
            if what == "an int accumulator" {
                src = src.replace("double g;", "int g;");
            }
            if what == "e calls" {
                src = src.replace("int main()", "double f() { return 1.0; }\nint main()");
            }
            if what == "a reduction clause elsewhere" {
                src = src.replace(
                    "return 0;",
                    "#pragma omp parallel reduction(+:g)\n{ g = g + 1; }\nreturn 0;",
                );
            }
            let (sites, crits) = verdicts(&src);
            // The nested case lowers its inner section only.
            let nested = what == "a nested critical";
            assert_eq!(sites.is_empty(), !nested, "{what}: {sites:?}\n{src}");
            assert!(crits.contains(":locked"), "{what}: {crits}\n{src}");
        }
    }

    #[test]
    fn chains_sequential_use_and_builtins_still_accumulate() {
        let (sites, crits) = verdicts(
            "double c;\ndouble p = 1;\ndouble w = 3;\n\
             int main() {\n\
               c = 5; p = p * 2; w = c;\n\
               #pragma omp parallel\n{\n\
                 #pragma omp critical\n\
                 { c = 2 * w + (c - 1) - omp_get_thread_num(); p = 3 * p * w; }\n\
               }\n\
               print(c, p);\nreturn 0;\n}\n",
        );
        assert_eq!((sites.join(" "), &crits[..]), ("c p".into(), "-:lowered"));
    }

    #[test]
    fn a_region_contributes_the_sites_it_reaches() {
        let l = lower(
            "double a;\ndouble b;\n\
             void add_b() {\n#pragma omp critical\n{ b = b + 1; }\n}\n\
             void spawn_b() {\n#pragma omp task\nadd_b();\n}\n\
             int main() {\n\
               #pragma omp parallel\n{\n#pragma omp critical\n{ a = a + 1; }\n}\n\
               #pragma omp parallel\n{\n#pragma omp single\n{ spawn_b(); }\n}\n\
               #pragma omp parallel\n{\nint k = 0;\n}\n\
               return 0;\n}\n",
        );
        let names: Vec<&str> = l
            .accums
            .iter()
            .map(|a| &*l.globals[a.gid as usize].name)
            .collect();
        assert_eq!(names, ["a", "b"]);
        let per_region: Vec<&[u16]> = l.regions.iter().map(|r| &r.accums[..]).collect();
        assert_eq!(per_region, [&[0u16][..], &[1], &[]]);
        assert_ne!(l.accums[0].key, l.accums[1].key);
    }
}

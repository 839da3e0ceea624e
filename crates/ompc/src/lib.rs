//! # ompc — an OpenMP directive front-end for the NOW runtime
//!
//! The SC'98 paper's headline contribution is its *translator*: OpenMP
//! source programs are compiled onto TreadMarks calls — shared/private
//! data classification, parallel-region outlining, directive lowering.
//! This crate reproduces that pipeline for a small C-like language:
//!
//! ```text
//!   .omp source ──lex/parse──▶ AST ──classify+lower──▶ IR ──compile──▶ closures ──run──▶ nomp::Env
//!                 (lex, parse)       (sema)                 (codegen)            (interp)  on the
//!                                                                                          simulated NOW
//! ```
//!
//! [`compile`] does all of it up to the closures: frame slots, global
//! indices, operators, operand shapes, `int` truncation, constant
//! sub-expressions and error spans are resolved once, so a run pays for
//! the program's arithmetic and its DSM accesses, not for re-reading the
//! IR.
//!
//! Translated programs execute through the same [`nomp`] runtime as the
//! hand-written Rust applications, on the same simulated network — they
//! pay real DSM protocol traffic and virtual time, so the translated-vs-
//! hand-written overhead is measurable (see the `ompc_overhead` bench).
//!
//! ## Lowering rules
//!
//! | Source construct | Classification / lowering |
//! |---|---|
//! | global `double x;` / `double a[N];` | **shared**: DSM-resident `SharedScalar`/`SharedVec` (Modification 1) |
//! | function locals, params | **private**: slots in a per-thread frame |
//! | `#pragma omp parallel` | region body outlined; enclosing frame copied per thread (firstprivate environment, modeled in the fork payload); implicit join barrier |
//! | `#pragma omp parallel for` / `omp for` | canonical `for (int i = LO; i < HI; i = i + 1)` driven chunk-wise through [`nomp::LoopPlan`]; interior `omp for` adds the implied end barrier |
//! | `schedule(static[,c] \| dynamic[,c] \| guided[,c] \| runtime)` | [`nomp::Schedule`]; `runtime` resolves from [`nomp::OmpConfig::runtime_schedule`]; dynamic/guided draw chunks from a DSM counter under a runtime lock |
//! | `shared(g)` | legal only for globals; `shared(local)` is a compile error (stack data cannot live in DSM — Modification 1) |
//! | `private(x)` / `firstprivate(x)` | locals: cleared / captured copy; globals: rebound to a fresh private slot (zeroed / seeded from the global) |
//! | `reduction(op:g)` | `g` rebound to a private accumulator seeded with `op`'s identity; at a region's end (`parallel` or combined `parallel for`) each node's partial rides the join and the master folds them into the shared global in node order; an interior `for` combines under a per-site lock before its barrier |
//! | `#pragma omp critical [(name)]` | [`nomp::critical_id`] lock around the block; a section that only accumulates into globals parallel code touches no other way (`g = g + e`, `g = g * e`) takes no lock: each thread accumulates privately and the sums ride the region's join like a region `reduction` |
//! | `#pragma omp barrier` | DSM barrier (context-checked over the call graph) |
//! | `#pragma omp single` | thread 0 executes + implied barrier |
//! | `#pragma omp task` | body outlined; ≤[`MAX_TASK_CAPTURES`] referenced privates packed into the 32-byte [`nomp::TaskArgs`] descriptor; regions from which tasks are reachable run as work-stealing task scopes (others fork as plain regions) |
//! | `#pragma omp taskwait` | [`nomp::TaskScope::taskwait`] (four-counter quiescence; each node's counters ride its steal reply with the notices of the completions they count) |
//! | `int` declarations | value truncated on store (C semantics); `%` is integer modulo |
//!
//! Context rules are enforced over the *call graph*, not just lexically:
//! `task`/`taskwait`/`barrier` may be orphaned in functions called from
//! parallel regions, but are compile errors in any function reachable
//! from sequential context; `for`/`single` must be lexically inside a
//! `parallel`; `parallel` cannot nest.
//!
//! ## Example
//!
//! A [`Compiled`] program is a [`nomp::NowProgram`]: it runs on a
//! [`nomp::Cluster`] like any region closure, and its measurements ride
//! in the same [`nomp::RunReport`].
//!
//! ```
//! use nomp::{Cluster, OmpConfig};
//!
//! let prog = ompc::compile(
//!     r#"
//!     double pi;
//!     int main() {
//!         int n = 1000;
//!         double step = 1.0 / n;
//!         #pragma omp parallel for reduction(+:pi) schedule(static)
//!         for (int i = 0; i < n; i = i + 1) {
//!             double x = (i + 0.5) * step;
//!             pi = pi + 4.0 / (1.0 + x * x);
//!         }
//!         pi = pi * step;
//!         return 0;
//!     }
//!     "#,
//! )
//! .unwrap();
//! let report = Cluster::from_config(OmpConfig::fast_test(2))
//!     .run(&prog)
//!     .unwrap();
//! assert!((report.result.scalars["pi"] - std::f64::consts::PI).abs() < 1e-5);
//! assert!(report.msgs() > 0); // the translated program paid real DSM traffic
//! ```

#![warn(missing_docs)]

mod accum;
mod analyze;
mod ast;
mod codegen;
mod diag;
mod dynrace;
mod interp;
mod ir;
mod lex;
mod lints;
mod parse;
mod sema;

pub use diag::{Diag, Span};
pub use dynrace::{DataRace, RaceAccess};
pub use lints::{lints_to_json, Lint, LintCode, LintLevel};

use codegen::Code;
use interp::run_master;
use nomp::{Env, Job, NowProgram};
use std::collections::BTreeMap;
use std::sync::Arc;

/// How many private variables a `task` body may capture: the 32-byte
/// task descriptor holds the site id plus three value words.
pub const MAX_TASK_CAPTURES: usize = 3;

/// A compiled `.omp` program, ready to run (cheaply cloneable).
#[derive(Clone)]
pub struct Compiled {
    /// The lowered IR (what the analyzer reads) and the closures compiled
    /// from it, once (what a run executes).
    code: Arc<Code>,
    /// Run the dynamic happens-before race checker during execution
    /// (see [`Compiled::check_races`]).
    dynamic_races: bool,
}

/// Parse, classify, lower and compile an `.omp` source program.
///
/// All front-end errors — lexical, syntactic and semantic — come back as
/// a spanned [`Diag`]; this function never panics. A [`Diag`] converts
/// into [`nomp::NowError::Compile`], so `?` composes compile + run on a
/// [`nomp::Cluster`] end to end.
pub fn compile(src: &str) -> Result<Compiled, Diag> {
    let ast = parse::parse(src)?;
    let l = sema::lower(&ast)?;
    Ok(Compiled {
        code: Arc::new(codegen::compile(l)),
        dynamic_races: false,
    })
}

/// A compiled program together with its analyzer findings.
///
/// [`compile_report`] is [`compile`] plus the static race/sync analyzer
/// in one step — the form `now-service` uses at admission and
/// `omp_runner --analyze` prints.
#[derive(Clone)]
pub struct CompileReport {
    /// The runnable program.
    pub program: Compiled,
    /// Analyzer findings, sorted by source position. Levels are `Warn`;
    /// callers that deny races promote with [`promote_races`].
    pub lints: Vec<Lint>,
}

/// Compile and statically analyze a `.omp` program.
pub fn compile_report(src: &str) -> Result<CompileReport, Diag> {
    let program = compile(src)?;
    let lints = analyze::analyze(&program.code.l);
    Ok(CompileReport { program, lints })
}

/// Promote every race-class lint (`OMP201`..`OMP204`) to
/// [`LintLevel::Deny`] — the `--deny-races` / service-admission policy.
pub fn promote_races(lints: &mut [Lint]) {
    for l in lints {
        if l.code.is_race_class() {
            l.level = lints::LintLevel::Deny;
        }
    }
}

impl Compiled {
    /// Run the static race/sync analyzer over this program.
    ///
    /// Findings come back sorted by source position with stable codes
    /// (`OMP201` shared-write race … `OMP206` dead sync); see the crate
    /// README's lint catalog. The analyzer only reports *provable*
    /// findings, so clean programs — including every shipped example —
    /// produce an empty list.
    pub fn lints(&self) -> Vec<Lint> {
        analyze::analyze(&self.code.l)
    }

    /// Enable (or disable) the dynamic happens-before race checker for
    /// subsequent runs of this program: every shared load/store is
    /// tagged with its thread's vector clock and concrete racing pairs
    /// are reported in [`ProgramOutput::races`] at the end of the run.
    ///
    /// Off by default — checking costs per-access bookkeeping.
    pub fn check_races(mut self, on: bool) -> Self {
        self.dynamic_races = on;
        self
    }
}

/// Final state of a translated program: one job's result payload on a
/// [`nomp::Cluster`] (measurements — virtual time, traffic, DSM counters —
/// ride in the enclosing [`nomp::RunReport`]).
#[derive(Debug, Clone, PartialEq)]
pub struct ProgramOutput {
    /// `main`'s return value.
    pub ret: f64,
    /// Lines printed from sequential context (parallel-context prints go
    /// to stdout with a `[t<id>]` prefix as they happen).
    pub printed: Vec<String>,
    /// Final values of all global scalars.
    pub scalars: BTreeMap<String, f64>,
    /// Final contents of all global arrays.
    pub arrays: BTreeMap<String, Vec<f64>>,
    /// Concrete racing access pairs observed by the dynamic
    /// happens-before checker — always empty unless the program was
    /// prepared with [`Compiled::check_races`].
    pub races: Vec<DataRace>,
}

/// A compiled program is a cluster job: `cluster.run(compiled)` executes
/// it through the same session API as handwritten region closures.
///
/// Runtime errors in the translated program (out-of-bounds indexing,
/// invalid array lengths, modulo by zero, runaway recursion) panic with
/// an `ompc runtime error at line L:C` message — the translated analogue
/// of a segfault. Like any job panic it takes the job's cluster down; the
/// `Compiled` itself holds no run state and can be submitted again.
impl NowProgram for Compiled {
    type Output = ProgramOutput;

    fn into_job(self) -> Job<ProgramOutput> {
        let Compiled {
            code,
            dynamic_races,
        } = self;
        Job::new(move |env: &mut Env<'_>| {
            let m = run_master(&code, env, dynamic_races);
            ProgramOutput {
                ret: m.ret,
                printed: m.lines,
                scalars: m.scalars,
                arrays: m.arrays,
                races: m.races,
            }
        })
    }
}

/// Run a compiled program without consuming it (it is cheaply cloneable,
/// so the same `.omp` program can be submitted to a warm cluster again
/// and again).
impl NowProgram for &Compiled {
    type Output = ProgramOutput;

    fn into_job(self) -> Job<ProgramOutput> {
        self.clone().into_job()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `check_races` flips a flag on the handle; the IR and the code
    /// compiled from it are the ones `compile` built.
    #[test]
    fn race_checked_and_plain_handles_share_one_compiled_program() {
        let plain = compile("double g; int main() { g = 1.0; return 0; }").unwrap();
        let (on, off) = (
            plain.clone().check_races(true),
            plain.clone().check_races(false),
        );
        for other in [&on, &off] {
            assert!(Arc::ptr_eq(&plain.code, &other.code));
        }
        assert!(on.dynamic_races && !off.dynamic_races);
    }
}

//! The static analyzer against its fixture matrix, plus dynamic
//! happens-before confirmation of the race-class findings.
//!
//! The contract under test:
//! - every `examples/omp/racy/*.omp` fixture is flagged with exactly the
//!   expected lint codes at the expected spans;
//! - no `examples/omp/clean/*.omp` fixture and none of the five shipped
//!   examples produce any lint (zero false positives on the corpus);
//! - running a racy fixture under [`ompc::Compiled::check_races`]
//!   reports concrete racing pairs whose spans match the static finding
//!   (the static lint is *confirmed* by an actual interleaving);
//! - the analyzer never panics on generated programs.

use nomp::{Cluster, OmpConfig};
use ompc::{compile, compile_report, lints_to_json, promote_races, Lint, LintLevel};

/// One program on a fresh `fast_test` cluster; the payload carries the
/// dynamic checker's `races`.
fn run_on(prog: &ompc::Compiled, nodes: usize) -> ompc::ProgramOutput {
    Cluster::from_config(OmpConfig::fast_test(nodes))
        .run(prog)
        .expect("a fresh cluster accepts a job")
        .result
}

fn fixture(rel: &str) -> String {
    let path = format!("{}/../../examples/omp/{rel}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {path}: {e}"))
}

fn lints_of(rel: &str) -> Vec<Lint> {
    compile_report(&fixture(rel))
        .unwrap_or_else(|d| panic!("{rel} failed to compile: {d}"))
        .lints
}

fn fixture_files(dir: &str) -> Vec<String> {
    let path = format!("{}/../../examples/omp/{dir}", env!("CARGO_MANIFEST_DIR"));
    let mut names: Vec<String> = std::fs::read_dir(&path)
        .unwrap_or_else(|e| panic!("read_dir {path}: {e}"))
        .map(|e| format!("{dir}/{}", e.unwrap().file_name().to_string_lossy()))
        .filter(|n| n.ends_with(".omp"))
        .collect();
    names.sort();
    names
}

// ---------------------------------------------------------------------
// Static matrix
// ---------------------------------------------------------------------

/// Every racy fixture flags with exactly the expected `(code, line, col)`
/// set — no more, no less.
/// One fixture's expected findings: `(code, line, col)` triples.
type Findings = &'static [(&'static str, u32, u32)];

#[test]
fn racy_fixtures_flag_expected_codes_and_spans() {
    let expected: &[(&str, Findings)] = &[
        ("racy/dead_barrier.omp", &[("OMP206", 11, 9)]),
        ("racy/dead_critical.omp", &[("OMP206", 7, 9)]),
        ("racy/lock_order.omp", &[("OMP205", 16, 13)]),
        ("racy/priv_escape_loopvar.omp", &[("OMP204", 10, 9)]),
        ("racy/priv_escape_tid.omp", &[("OMP204", 10, 9)]),
        ("racy/red_read_misuse.omp", &[("OMP203", 10, 16)]),
        ("racy/red_write_misuse.omp", &[("OMP203", 7, 9)]),
        ("racy/seq_critical.omp", &[("OMP206", 5, 5)]),
        ("racy/single_vs_team_read.omp", &[("OMP202", 11, 13)]),
        (
            "racy/task_incr.omp",
            &[("OMP201", 13, 21), ("OMP202", 13, 21)],
        ),
        ("racy/team_incr.omp", &[("OMP201", 7, 9), ("OMP202", 7, 9)]),
        ("racy/ws_same_cell.omp", &[("OMP201", 7, 9)]),
    ];
    // The matrix covers every file in racy/ (a new fixture must bring
    // its expectation along).
    let listed: Vec<&str> = expected.iter().map(|(f, _)| *f).collect();
    assert_eq!(fixture_files("racy"), listed, "racy/ out of sync");

    for (file, want) in expected {
        let got: Vec<(String, u32, u32)> = lints_of(file)
            .iter()
            .map(|l| (l.code.code().to_string(), l.span.line, l.span.col))
            .collect();
        let want: Vec<(String, u32, u32)> = want
            .iter()
            .map(|&(c, l, co)| (c.to_string(), l, co))
            .collect();
        assert_eq!(got, want, "{file}");
    }
}

/// Clean fixtures and all five shipped examples produce zero lints —
/// the analyzer only reports provable findings.
#[test]
fn clean_corpus_produces_no_lints() {
    let clean = fixture_files("clean");
    assert!(clean.len() >= 10, "clean fixture matrix shrank: {clean:?}");
    for file in clean {
        let lints = lints_of(&file);
        assert!(lints.is_empty(), "{file}: unexpected lints {lints:?}");
    }
    for file in [
        "pi.omp",
        "dotprod.omp",
        "jacobi.omp",
        "fib.omp",
        "qsort.omp",
    ] {
        let lints = lints_of(file);
        assert!(lints.is_empty(), "{file}: unexpected lints {lints:?}");
    }
}

/// A `critical` gets the same OMP206 verdict written inline in a region
/// as inside a function the region calls: a shared write, a call that
/// reads shared data and a call that spawns a task all keep it live; a
/// private-only update is dead in both places.
#[test]
fn dead_critical_verdict_is_the_same_inline_and_in_a_callee() {
    const PRELUDE: &str = "double g;\ndouble f(double v) { return v + g; }\n\
        void spawner() {\n#pragma omp task\n{\n#pragma omp critical (red)\n\
        { g = g + 1.0; }\n}\n}\n";
    for (body, dead) in [
        ("g = g + 1.0;", false),
        ("x = f(x);", false),
        ("spawner();", false),
        ("x = x + 1.0;", true),
    ] {
        let crit = format!("double x = 0.0;\n#pragma omp critical\n{{ {body} }}\n");
        let inline =
            format!("{PRELUDE}int main() {{\n#pragma omp parallel\n{{\n{crit}}}\nreturn 0;\n}}");
        let called = format!(
            "{PRELUDE}void guarded() {{\n{crit}}}\n\
             int main() {{\n#pragma omp parallel\n{{ guarded(); }}\nreturn 0;\n}}"
        );
        for src in [inline, called] {
            let lints = compile_report(&src)
                .unwrap_or_else(|d| panic!("{d}\n{src}"))
                .lints;
            let flagged = lints.iter().any(|l| l.code.code() == "OMP206");
            assert_eq!(flagged, dead, "`{body}`: {lints:?}\n{src}");
        }
    }
}

/// `promote_races` raises exactly the race-class codes to `Deny`;
/// structural findings stay warnings. JSON output carries the levels.
#[test]
fn promote_races_denies_race_class_only() {
    let mut lints = lints_of("racy/team_incr.omp");
    lints.extend(lints_of("racy/dead_barrier.omp"));
    promote_races(&mut lints);
    for l in &lints {
        let want = if l.code.is_race_class() {
            LintLevel::Deny
        } else {
            LintLevel::Warn
        };
        assert_eq!(l.level, want, "{l}");
    }
    let json = lints_to_json(&lints);
    assert!(json.contains("\"level\":\"error\""), "{json}");
    assert!(json.contains("\"level\":\"warning\""), "{json}");
    assert!(json.contains("\"code\":\"OMP201\""), "{json}");
}

/// Related spans point at the second access of pairwise findings.
#[test]
fn race_lints_carry_related_spans() {
    let lints = lints_of("racy/single_vs_team_read.omp");
    let (rs, label) = lints[0].related.clone().expect("related span");
    assert_eq!((rs.line, rs.col), (8, 20));
    assert!(label.contains("read"), "{label}");
}

// ---------------------------------------------------------------------
// Dynamic confirmation
// ---------------------------------------------------------------------

/// Each shared-write/read-race fixture, run under the dynamic checker,
/// reports a concrete racing pair whose spans include the statically
/// flagged access — the static finding is confirmed at runtime.
#[test]
fn dynamic_checker_confirms_race_fixtures() {
    // `needs_steal`: the eight one-line tasks of `task_incr` run on two
    // threads only if a thief gets one before the spawner has drained its
    // own deque. A run without a steal executed the fixture sequentially
    // and has no race to observe, so it is not the run to judge.
    let confirm: &[(&str, u32, u32, bool)] = &[
        ("racy/team_incr.omp", 7, 9, false),
        ("racy/ws_same_cell.omp", 7, 9, false),
        ("racy/task_incr.omp", 13, 21, true),
        ("racy/single_vs_team_read.omp", 11, 13, false),
        ("racy/priv_escape_tid.omp", 10, 9, false),
        ("racy/priv_escape_loopvar.omp", 10, 9, false),
    ];
    const STEAL_ATTEMPTS: usize = 20;
    for &(file, line, col, needs_steal) in confirm {
        let prog = compile(&fixture(file)).unwrap().check_races(true);
        let out = (0..STEAL_ATTEMPTS)
            .map(|_| {
                Cluster::from_config(OmpConfig::fast_test(4))
                    .run(&prog)
                    .expect("a fresh cluster accepts a job")
            })
            .find(|report| !needs_steal || report.dsm.tasks_stolen > 0)
            .unwrap_or_else(|| panic!("{file}: no task stolen in {STEAL_ATTEMPTS} runs"))
            .result;
        assert!(!out.races.is_empty(), "{file}: no dynamic race observed");
        let hit = out.races.iter().any(|r| {
            let s = |sp: ompc::Span| (sp.line, sp.col);
            s(r.first.span) == (line, col) || s(r.second.span) == (line, col)
        });
        assert!(
            hit,
            "{file}: no racing pair touches the static finding at {line}:{col}: {:?}",
            out.races
        );
        // The report names threads on distinct nodes or threads — a
        // same-thread pair would not be a race.
        for r in &out.races {
            assert_ne!(r.first.thread, r.second.thread, "{file}: {r}");
        }
    }
}

/// The dynamic checker stays silent on race-free programs: the clean
/// fixtures that exercise real synchronization, and every shipped
/// example.
#[test]
fn dynamic_checker_silent_on_clean_programs() {
    for file in [
        "clean/critical_incr.omp",
        "clean/single_then_read.omp",
        "clean/barrier_phases.omp",
        "clean/solo_task_wait.omp",
        "pi.omp",
        "fib.omp",
    ] {
        let prog = compile(&fixture(file)).unwrap().check_races(true);
        let out = run_on(&prog, 4);
        assert!(
            out.races.is_empty(),
            "{file}: false dynamic races {:?}",
            out.races
        );
    }
}

/// `check_races(false)` (and the default) keep the report empty and do
/// not disturb results.
#[test]
fn race_checking_is_off_by_default() {
    let src = fixture("racy/team_incr.omp");
    let out = run_on(&compile(&src).unwrap(), 2);
    assert!(out.races.is_empty());
}

// ---------------------------------------------------------------------
// No-panic property
// ---------------------------------------------------------------------

// Programs assembled from directive-heavy fragments: most compile, and
// whatever compiles must analyze without panicking (and with stable
// JSON rendering).
proptest::proptest! {
    #![proptest_config(proptest::ProptestConfig { cases: 256, max_shrink_iters: 0 })]

    #[test]
    fn analyzer_never_panics_on_generated_programs(
        clause in 0usize..6,
        picks in proptest::collection::vec(0usize..22, 0..12),
    ) {
        const CLAUSES: [&str; 6] = [
            "", " reduction(+:g)", " reduction(max:g)", " private(g)",
            " firstprivate(g)", " reduction(*:h)",
        ];
        const STMTS: [&str; 22] = [
            "g = g + 1.0;",
            "g = 3.0;",
            "double x = g;",
            "a[0] = 1.0;",
            "h = omp_get_thread_num();",
            "#pragma omp critical\n{ g = g + 1.0; }\n",
            "#pragma omp critical (red)\n{ h = h + 1.0; }\n",
            "#pragma omp critical (blue)\n{\n#pragma omp critical (red)\n{ g = 0.0; }\n}\n",
            "#pragma omp barrier\n",
            "#pragma omp single\n{ g = 5.0; }\n",
            "#pragma omp for\nfor (int i = 0; i < 8; i = i + 1) { a[i] = i; }\n",
            "#pragma omp for\nfor (int j = 0; j < 8; j = j + 1) { a[0] = j; }\n",
            "double y = f(2.0);",
            "h = a[3];",
            "print(\"v \", g);",
            "double z = omp_get_wtime();",
            "#pragma omp task\n{ g = g + 1.0; }\n",
            "#pragma omp taskwait\n",
            "spawner();",
            "report();",
            "#pragma omp single\n{ spawner(); }\n",
            "#pragma omp critical (blue)\n{ spawner(); }\n",
        ];
        let body: String = picks.iter().map(|&i| format!("{}\n", STMTS[i])).collect();
        let src = format!(
            "double g;\ndouble h;\ndouble a[8];\n\
             double f(double v) {{ return v + g; }}\n\
             void spawner() {{\n#pragma omp task\n{{\n#pragma omp critical (red)\n\
             {{ h = h + 1.0; }}\n}}\n}}\n\
             void report() {{ print(\"r\"); }}\n\
             int main() {{\n#pragma omp parallel{}\n{{\n{body}}}\nreturn 0;\n}}",
            CLAUSES[clause],
        );
        if let Ok(report) = compile_report(&src) {
            let mut lints = report.lints;
            promote_races(&mut lints);
            let _ = lints_to_json(&lints);
            for l in &lints {
                let _ = l.to_string();
            }
        }
    }
}

//! Feature-level execution tests: small programs exercising one
//! construct each, cross-checked against hand-computed results.

use nomp::{Cluster, OmpConfig, RunReport, Schedule};
use ompc::ProgramOutput;

/// The program's final state after one run on a fresh `fast_test` cluster.
fn run(src: &str, nodes: usize) -> ProgramOutput {
    report(src, OmpConfig::fast_test(nodes)).result
}

/// The same, with the job's measurements.
fn report(src: &str, cfg: OmpConfig) -> RunReport<ProgramOutput> {
    let prog = ompc::compile(src).unwrap_or_else(|d| panic!("compile failed: {d}"));
    Cluster::from_config(cfg)
        .run(&prog)
        .expect("a fresh cluster accepts a job")
}

#[test]
fn int_declarations_truncate_like_c() {
    let out = run(
        "int q;\n\
         double d;\n\
         int main() {\n\
           int lo = 3; int hi = 8;\n\
           q = (lo + hi) / 2;\n\
           d = (lo + hi) / 2.0;\n\
           int m = 17 % 5;\n\
           return m;\n\
         }",
        1,
    );
    assert_eq!(out.scalars["q"], 5.0); // truncated on store
    assert_eq!(out.scalars["d"], 5.5); // double keeps the fraction
    assert_eq!(out.ret, 2.0);
}

#[test]
fn parallel_level_reduction_and_builtins() {
    // reduction on `parallel` itself: every thread contributes its
    // thread id + 1 once; expect sum 1..=p.
    for nodes in [1usize, 3, 8] {
        let out = run(
            "double total;\n\
             int main() {\n\
               #pragma omp parallel reduction(+:total)\n\
               {\n\
                 total = total + omp_get_thread_num() + 1;\n\
               }\n\
               return omp_get_num_threads();\n\
             }",
            nodes,
        );
        let p = nodes as f64;
        assert_eq!(out.scalars["total"], p * (p + 1.0) / 2.0, "{nodes} nodes");
        // omp_get_num_threads in sequential context is 1, like real OpenMP.
        assert_eq!(out.ret, 1.0);
    }
}

#[test]
fn privatized_globals_and_firstprivate() {
    let out = run(
        "double g = 10.0;\n\
         double seen[8];\n\
         int main() {\n\
           #pragma omp parallel firstprivate(g)\n\
           {\n\
             g = g + omp_get_thread_num();\n\
             seen[omp_get_thread_num()] = g;\n\
           }\n\
           return 0;\n\
         }",
        4,
    );
    // Each thread's private copy started at 10; the global is untouched.
    assert_eq!(out.scalars["g"], 10.0);
    assert_eq!(out.arrays["seen"][..4], [10.0, 11.0, 12.0, 13.0]);

    let out = run(
        "double g = 7.0;\n\
         double seen[8];\n\
         int main() {\n\
           #pragma omp parallel private(g)\n\
           { seen[omp_get_thread_num()] = g; }\n\
           return 0;\n\
         }",
        2,
    );
    // private(g): region copies start at 0, not 7.
    assert_eq!(out.arrays["seen"][..2], [0.0, 0.0]);
    assert_eq!(out.scalars["g"], 7.0);
}

#[test]
fn min_and_prod_reductions() {
    let out = run(
        "double lo;\n\
         double prod = 1.0;\n\
         int main() {\n\
           lo = 1e9;\n\
           #pragma omp parallel for reduction(min:lo) schedule(static, 3)\n\
           for (int i = 0; i < 50; i = i + 1) {\n\
             double v = (i - 20) * (i - 20) + 5;\n\
             if (v < lo) { lo = v; }\n\
           }\n\
           #pragma omp parallel for reduction(*:prod) schedule(dynamic, 4)\n\
           for (int i = 1; i <= 10; i = i + 1) {\n\
             prod = prod * i;\n\
           }\n\
           return 0;\n\
         }",
        3,
    );
    assert_eq!(out.scalars["lo"], 5.0);
    assert_eq!(out.scalars["prod"], 3_628_800.0); // 10!
}

#[test]
fn critical_sections_serialize_updates() {
    for nodes in [2usize, 4] {
        let out = run(
            "double counter;\n\
             int main() {\n\
               #pragma omp parallel\n\
               {\n\
                 int i = 0;\n\
                 while (i < 5) {\n\
                   #pragma omp critical (ctr)\n\
                   { counter = counter + 1; }\n\
                   i = i + 1;\n\
                 }\n\
               }\n\
               return 0;\n\
             }",
            nodes,
        );
        assert_eq!(out.scalars["counter"], 5.0 * nodes as f64, "{nodes} nodes");
    }
}

#[test]
fn barrier_phases_are_ordered() {
    // Phase 1 writes, barrier, phase 2 reads a neighbour's slot: without
    // the barrier the read could see a stale zero.
    let out = run(
        "double a[8];\n\
         double b[8];\n\
         int main() {\n\
           #pragma omp parallel\n\
           {\n\
             int me = omp_get_thread_num();\n\
             a[me] = me + 1;\n\
             #pragma omp barrier\n\
             b[me] = a[(me + 1) % omp_get_num_threads()];\n\
           }\n\
           return 0;\n\
         }",
        4,
    );
    assert_eq!(out.arrays["b"][..4], [2.0, 3.0, 4.0, 1.0]);
}

#[test]
fn single_runs_once_and_publishes() {
    let out = run(
        "double x;\n\
         double seen[8];\n\
         int main() {\n\
           #pragma omp parallel\n\
           {\n\
             #pragma omp single\n\
             { x = 42.0; }\n\
             seen[omp_get_thread_num()] = x;\n\
           }\n\
           return 0;\n\
         }",
        3,
    );
    assert_eq!(out.scalars["x"], 42.0);
    assert_eq!(out.arrays["seen"][..3], [42.0, 42.0, 42.0]);
}

#[test]
fn interior_dynamic_for_reruns_correctly() {
    // An interior `omp for` with a shared chunk counter executed several
    // times in one region: the counter reset logic must make every
    // sweep cover all indices exactly once.
    let out = run(
        "double hits[40];\n\
         int rounds = 3;\n\
         int main() {\n\
           #pragma omp parallel\n\
           {\n\
             int r = 0;\n\
             while (r < rounds) {\n\
               #pragma omp for schedule(dynamic, 3)\n\
               for (int i = 0; i < 40; i = i + 1) {\n\
                 hits[i] = hits[i] + 1;\n\
               }\n\
               r = r + 1;\n\
             }\n\
           }\n\
           return 0;\n\
         }",
        4,
    );
    assert!(
        out.arrays["hits"].iter().all(|&h| h == 3.0),
        "{:?}",
        out.arrays["hits"]
    );
}

#[test]
fn schedule_runtime_follows_the_config() {
    let src = "double s;\n\
         int main() {\n\
           #pragma omp parallel for reduction(+:s) schedule(runtime)\n\
           for (int i = 0; i < 100; i = i + 1) { s = s + i; }\n\
           return 0;\n\
         }";
    for rs in [
        Schedule::Static,
        Schedule::Dynamic(8),
        Schedule::Guided(2),
        Schedule::StaticChunk(5),
    ] {
        let mut cfg = OmpConfig::fast_test(3);
        cfg.runtime_schedule = rs;
        let out = report(src, cfg).result;
        assert_eq!(out.scalars["s"], 4950.0, "{rs:?}");
    }
}

#[test]
fn wtime_advances_across_regions() {
    let out = run(
        "double t0;\n\
         double t1;\n\
         int main() {\n\
           t0 = omp_get_wtime();\n\
           #pragma omp parallel\n\
           { }\n\
           t1 = omp_get_wtime();\n\
           return 0;\n\
         }",
        // Paper cost model so fork/barrier have a real price.
        2,
    );
    assert!(out.scalars["t1"] >= out.scalars["t0"]);
}

#[test]
fn regions_without_reachable_tasks_stay_plain() {
    // The same parallel-for program, with and without an *uncalled*
    // task-bearing function elsewhere in the file: the loop region must
    // not pay task-scope overhead just because tasks exist somewhere,
    // so the modeled traffic is identical.
    let plain = "double s;\n\
         int main() {\n\
           #pragma omp parallel for reduction(+:s)\n\
           for (int i = 0; i < 64; i = i + 1) { s = s + i; }\n\
           return 0;\n\
         }";
    let with_unreachable_task = "double s;\n\
         double g;\n\
         void spawner() {\n\
           #pragma omp task\n\
           g = 1.0;\n\
         }\n\
         int main() {\n\
           #pragma omp parallel for reduction(+:s)\n\
           for (int i = 0; i < 64; i = i + 1) { s = s + i; }\n\
           return 0;\n\
         }";
    let a = report(plain, OmpConfig::fast_test(4));
    let b = report(with_unreachable_task, OmpConfig::fast_test(4));
    assert_eq!(a.result.scalars["s"], 2016.0);
    assert_eq!(b.result.scalars["s"], 2016.0);
    assert_eq!(a.msgs(), b.msgs(), "plain region paid task-scope overhead");

    // And a program mixing both kinds of region still works: the loop
    // region is plain, the task region schedules tasks.
    let mixed = "double s;\n\
         double c;\n\
         void leaf() {\n\
           #pragma omp critical\n\
           { c = c + 1; }\n\
         }\n\
         int main() {\n\
           #pragma omp parallel for reduction(+:s)\n\
           for (int i = 0; i < 64; i = i + 1) { s = s + i; }\n\
           #pragma omp parallel\n\
           {\n\
             #pragma omp single\n\
             {\n\
               int k = 0;\n\
               while (k < 10) {\n\
                 #pragma omp task\n\
                 leaf();\n\
                 k = k + 1;\n\
               }\n\
             }\n\
           }\n\
           return 0;\n\
         }";
    let m = report(mixed, OmpConfig::fast_test(4));
    assert_eq!(m.result.scalars["s"], 2016.0);
    assert_eq!(m.result.scalars["c"], 10.0);
    assert!(m.dsm.tasks_executed >= 10);
}

#[test]
fn runaway_recursion_is_a_clean_runtime_error() {
    let r = std::panic::catch_unwind(|| {
        run(
            "int f(int k) { return f(k) + 1; }\nint main() { return f(1); }",
            1,
        )
    });
    let err = r.expect_err("unbounded recursion must be caught");
    let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
    assert!(msg.contains("call depth exceeded"), "{msg}");
}

#[test]
fn nan_index_is_rejected_not_wrapped_to_zero() {
    let r = std::panic::catch_unwind(|| {
        run(
            "double a[4];\ndouble z;\nint main() { a[z / z] = 9.0; return 0; }",
            1,
        )
    });
    let err = r.expect_err("NaN index must be a runtime error");
    let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
    assert!(msg.contains("out of bounds"), "{msg}");
}

#[test]
fn runtime_error_is_a_spanned_panic() {
    let r =
        std::panic::catch_unwind(|| run("double a[4];\nint main() { a[9] = 1.0; return 0; }", 1));
    let err = r.expect_err("out-of-bounds store must panic");
    let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
    assert!(msg.contains("ompc runtime error"), "{msg}");
    assert!(msg.contains("out of bounds"), "{msg}");
}

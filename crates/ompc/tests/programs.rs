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
fn zero_initialized_globals_are_not_written() {
    // Fresh shared memory is zero on every node, so a scalar global that
    // starts at +0.0 costs no twin (and no node fetches an empty diff for
    // it); -0.0 has other bits and is written like any other value.
    let r = report(
        "double zero;\n\
         double also = 0.0;\n\
         double neg = -0.0;\n\
         double one = 1.0;\n\
         int main() { return 0; }",
        OmpConfig::fast_test(2),
    );
    let s = &r.result.scalars;
    assert_eq!((s["zero"], s["also"], s["one"]), (0.0, 0.0, 1.0));
    assert_eq!(s["neg"].to_bits(), (-0.0f64).to_bits());
    assert_eq!(r.dsm.twins_created, 2, "only `neg` and `one` are written");
}

/// The message a translated program's run dies with.
fn runtime_error(src: &'static str) -> String {
    let err = std::panic::catch_unwind(|| run(src, 1)).expect_err("the program must panic");
    err.downcast_ref::<String>().cloned().unwrap_or_default()
}

#[test]
fn runaway_recursion_is_a_clean_runtime_error() {
    // The guard names the call that went too deep and its callee.
    let msg = runtime_error("int f(int k) {\n  return f(k) + 1;\n}\nint main() { return f(1); }");
    assert!(
        msg.contains("ompc runtime error at line 2:10: call depth exceeded 256 calling `f`"),
        "{msg}"
    );
}

#[test]
fn nan_index_is_rejected_not_wrapped_to_zero() {
    let msg = runtime_error("double a[4];\ndouble z;\nint main() { a[z / z] = 9.0; return 0; }");
    assert!(msg.contains("out of bounds"), "{msg}");
}

#[test]
fn runtime_error_is_a_spanned_panic() {
    let msg = runtime_error("double a[4];\nint main() { a[9] = 1.0; return 0; }");
    assert!(msg.contains("ompc runtime error"), "{msg}");
    assert!(msg.contains("out of bounds"), "{msg}");
}

#[test]
fn modulo_by_zero_names_the_operator() {
    let msg = runtime_error("int z;\nint main() {\n  return 7 % z;\n}");
    assert!(
        msg.contains("ompc runtime error at line 3:12: modulo by zero"),
        "{msg}"
    );
    // A constant zero divisor is still the program's error, raised when
    // (and only if) the operation runs — never the compiler's.
    let msg = runtime_error("int main() {\n  return 7 % 0;\n}");
    assert!(msg.contains("at line 2:12: modulo by zero"), "{msg}");
    assert_eq!(
        run("int main() { if (0) { return 7 % 0; } return 1; }", 1).ret,
        1.0
    );
}

#[test]
fn an_unwound_run_leaves_nothing_in_the_compiled_program() {
    // 200 frames deep, then an out-of-bounds store. Were the call depth
    // or the frame stack kept with the program instead of with the run,
    // the second run would start 200 deep and die of the depth guard.
    let prog = ompc::compile(
        "double a[4];\n\
         void dive(int k) { if (k > 0) { dive(k - 1); } else { a[9] = 1.0; } }\n\
         int main() { dive(200); return 0; }",
    )
    .unwrap();
    for round in 0..2 {
        let p = prog.clone();
        let err =
            std::panic::catch_unwind(move || Cluster::from_config(OmpConfig::fast_test(1)).run(p))
                .expect_err("the store must panic");
        let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(msg.contains("out of bounds"), "round {round}: {msg}");
    }
}

// ----------------------------------------------------------------------
// The compile pass: every specialisation computes what Rust computes,
// and every ordering rule of the source survives it.
// ----------------------------------------------------------------------

fn truth(b: bool) -> f64 {
    f64::from(u8::from(b))
}

/// What `x OP y` is in the source language, computed by Rust.
fn rust_bin(op: &str, x: f64, y: f64) -> f64 {
    match op {
        "+" => x + y,
        "-" => x - y,
        "*" => x * y,
        "/" => x / y,
        "%" => ((x.trunc() as i64) % (y.trunc() as i64)) as f64,
        "==" => truth(x == y),
        "!=" => truth(x != y),
        "<" => truth(x < y),
        "<=" => truth(x <= y),
        ">" => truth(x > y),
        ">=" => truth(x >= y),
        "&&" => truth(x != 0.0 && y != 0.0),
        "||" => truth(x != 0.0 || y != 0.0),
        _ => unreachable!("{op}"),
    }
}

#[test]
fn every_operator_in_every_operand_shape_matches_rust() {
    const OPS: [&str; 13] = [
        "+", "-", "*", "/", "%", "==", "!=", "<", "<=", ">", ">=", "&&", "||",
    ];
    const PAIRS: [(f64, f64); 6] = [
        (7.5, -2.25),
        (0.0, 3.0),
        (-9.0, 4.0),
        (5.0, 5.0),
        (3.0, 0.0),
        (1e10, 7.0),
    ];
    for op in OPS {
        for (x, y) in PAIRS {
            if op == "%" && y == 0.0 {
                continue;
            }
            // An operand is a constant (`N`), a frame slot (`L`) or
            // anything else (`E`: here a product, itself `L∘N`); all nine
            // combinations compute the same `x OP y`.
            let as_n = |v: f64| format!("({v:?})");
            let forms =
                |v: f64, local: &str| [as_n(v), local.to_string(), format!("({local} * 1.0)")];
            let mut body = String::new();
            let mut k = 0;
            for l in forms(x, "a") {
                for r in forms(y, "b") {
                    // Once as an operand of something else (an element
                    // store), once assigned to a `double` local, once to
                    // an `int` local: the three things a specialised
                    // closure can do with its value.
                    body += &format!(
                        "v[{k}] = {l} {op} {r};\n double d{k} = {l} {op} {r}; d[{k}] = d{k};\n \
                         int t{k} = {l} {op} {r}; t[{k}] = t{k};\n"
                    );
                    k += 1;
                }
            }
            let src = format!(
                "double v[9]; double d[9]; double t[9];\n\
                 int main() {{ double a = {x:?}; double b = {y:?};\n{body} return 0; }}"
            );
            let out = run(&src, 1);
            let want = rust_bin(op, x, y);
            for k in 0..9 {
                let shape = ["N", "L", "E"];
                let what = format!("{x:?} {op} {y:?} as {}∘{}", shape[k / 3], shape[k % 3]);
                assert_eq!(
                    out.arrays["v"][k].to_bits(),
                    want.to_bits(),
                    "{what}, value"
                );
                assert_eq!(
                    out.arrays["d"][k].to_bits(),
                    want.to_bits(),
                    "{what}, double store"
                );
                assert_eq!(
                    out.arrays["t"][k].to_bits(),
                    want.trunc().to_bits(),
                    "{what}, int store"
                );
            }
        }
    }
}

#[test]
fn unary_builtin_folded_and_truncating_forms_match_rust() {
    let x = 2.75f64;
    let out = run(
        "double r[24];\n\
         int gi; int ga[2];\n\
         double pass(int k) { return k; }\n\
         int main() {\n\
           double a = 2.75; double z = 0.0;\n\
           r[0] = -a; r[1] = !a; r[2] = !z; r[3] = -(a * 1.0); r[4] = !(z * 1.0);\n\
           r[5] = -2.75; r[6] = !0.0; r[7] = !2.75;\n\
           r[8] = sqrt(a); r[9] = fabs(-a); r[10] = floor(-a);\n\
           r[11] = sin(a); r[12] = cos(a); r[13] = exp(a);\n\
           r[14] = omp_get_thread_num() + 10 * omp_get_num_threads() + 100 * omp_get_num_procs();\n\
           r[15] = omp_get_wtime() >= 0.0;\n\
           r[16] = 2.0 * 3.0 + 4.0 / 8.0 - 1.0 / 3.0;\n\
           r[17] = (10 % 4) * (1 < 2) + (3 >= 3) - (2 == 1) + (1 && 0) + (0 || 7);\n\
           int li = 7.9; r[18] = li;\n\
           li = 0.0 - 7.9; r[19] = li;\n\
           gi = a * 3.0; r[20] = gi;\n\
           ga[1] = 0.0 - a * 3.0; r[21] = ga[1];\n\
           r[22] = pass(3.99) + pass(0.0 - a);\n\
           r[23] = pass(-0.5);\n\
           return 0;\n\
         }",
        3,
    );
    let want = [
        -x,
        0.0,
        1.0,
        -(x * 1.0),
        1.0,
        -2.75,
        1.0,
        0.0,
        x.sqrt(),
        x.abs(),
        (-x).floor(),
        x.sin(),
        x.cos(),
        x.exp(),
        // Sequential context: thread 0, a team of 1, 3 processors.
        0.0 + 10.0 * 1.0 + 100.0 * 3.0,
        1.0,
        2.0 * 3.0 + 4.0 / 8.0 - 1.0 / 3.0,
        2.0 * 1.0 + 1.0 - 0.0 + 0.0 + 1.0,
        7.0,
        -7.0,
        8.0,
        -8.0,
        3.0 + -2.0,
        -0.0,
    ];
    for (k, w) in want.iter().enumerate() {
        assert_eq!(
            out.arrays["r"][k].to_bits(),
            w.to_bits(),
            "r[{k}]: {} vs {w}",
            out.arrays["r"][k]
        );
    }
    assert_eq!(out.scalars["gi"], 8.0);
    assert_eq!(out.arrays["ga"][1], -8.0);
}

#[test]
fn evaluation_order_and_short_circuit_are_the_sources() {
    // `mark(id, ret)` appends `id` to `log` and returns `ret`: the log is
    // the order in which calls actually ran.
    let out = run(
        "double log[16]; int n;\n\
         double a[8]; double r[8]; double first[8]; int after;\n\
         double mark(double id, double ret) { log[n] = id; n = n + 1; return ret; }\n\
         double sub(double x, double y) { return x - y; }\n\
         double first_over(double lim) {\n\
           int k = 0;\n\
           if (lim >= 0) {\n\
             while (1) {\n\
               if (k * k > lim) { return k; }\n\
               k = k + 1;\n\
             }\n\
             after = 1;\n\
           }\n\
           after = 1;\n\
           return 0 - 1;\n\
         }\n\
         int main() {\n\
           double z = 0.0; double o = 1.0;\n\
           r[0] = 0 && mark(1, 1);\n\
           r[1] = z && mark(2, 1);\n\
           r[2] = 1 || mark(3, 1);\n\
           r[3] = o || mark(4, 1);\n\
           r[4] = o && mark(5, 0);\n\
           r[5] = z || mark(6, 5);\n\
           a[mark(7, 2)] = mark(8, 9);\n\
           r[6] = sub(mark(9, 10), mark(10, 4));\n\
           r[7] = mark(11, 1) - mark(12, 2) * mark(13, 3);\n\
           #pragma omp parallel for schedule(static)\n\
           for (int i = 0; i < 8; i = i + 1) { first[i] = first_over(i * 10); }\n\
           return n;\n\
         }",
        2,
    );
    // 1–4 were short-circuited away; everything else ran left to right,
    // the index of an element store before its value.
    let ran = [5.0, 6.0, 7.0, 8.0, 9.0, 10.0, 11.0, 12.0, 13.0];
    assert_eq!(out.ret, ran.len() as f64);
    assert_eq!(out.arrays["log"][..ran.len()], ran);
    assert_eq!(out.arrays["r"], [0.0, 0.0, 1.0, 1.0, 0.0, 1.0, 6.0, -5.0]);
    assert_eq!(out.arrays["a"][2], 9.0);
    // `return` from a `while` inside an `if`, in the callee of a
    // work-shared loop body: the value gets out, nothing after it runs.
    let want: Vec<f64> = (0..8)
        .map(|i| (0..).find(|k| k * k > i * 10).unwrap() as f64)
        .collect();
    assert_eq!(out.arrays["first"], want);
    assert_eq!(out.scalars["after"], 0.0);
}

#[test]
fn one_compiled_program_serves_every_run_and_every_thread() {
    fn shareable<T: Send + Sync>(_: &T) {}
    let prog = ompc::compile(include_str!("../../../examples/omp/qsort.omp")).unwrap();
    shareable(&prog);

    let mut warm = Cluster::from_config(OmpConfig::fast_test(2));
    let first = warm.run(&prog).expect("warm job").result;
    assert_eq!(first.ret, 0.0, "sorted");
    for _ in 0..2 {
        assert_eq!(warm.run(&prog).expect("warm job").result, first);
    }

    let (a, b) = std::thread::scope(|s| {
        let on_own_cluster = || {
            Cluster::from_config(OmpConfig::fast_test(2))
                .run(&prog)
                .expect("cluster job")
                .result
        };
        let (a, b) = (s.spawn(on_own_cluster), s.spawn(on_own_cluster));
        (a.join().unwrap(), b.join().unwrap())
    });
    assert_eq!(a, first);
    assert_eq!(b, first);
}

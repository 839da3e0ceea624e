//! Front-end error paths: every malformed program must produce a
//! spanned [`ompc::Diag`], never a panic. The lexer and whole-pipeline
//! no-panic properties are checked over arbitrary inputs with proptest.

use ompc::compile;

/// Compile and return the diagnostic, asserting failure.
fn diag(src: &str) -> ompc::Diag {
    match compile(src) {
        Err(d) => d,
        Ok(_) => panic!("expected a diagnostic for:\n{src}"),
    }
}

#[test]
fn malformed_pragmas() {
    // Misspelled directive.
    let d = diag("int main() {\n#pragma omp paralell\n{ }\n}");
    assert!(d.msg.contains("unknown directive"), "{d}");
    assert_eq!(d.span.line, 2, "{d}");

    // Missing directive entirely.
    let d = diag("int main() {\n#pragma omp\nint x;\n}");
    assert!(d.msg.contains("missing a directive"), "{d}");

    // Not an omp pragma.
    let d = diag("int main() {\n#pragma once\n}");
    assert!(d.msg.contains("#pragma omp"), "{d}");

    // parallel for not followed by a for loop.
    let d = diag("int main() {\n#pragma omp parallel for\nint x;\n}");
    assert!(d.msg.contains("expected a `for` loop"), "{d}");
    assert_eq!(d.span.line, 3, "{d}");

    // Unknown clause and unknown schedule kind.
    let d = diag("int main() {\n#pragma omp parallel nowait\n{ }\n}");
    assert!(d.msg.contains("unknown clause"), "{d}");
    let d = diag(
        "int main() {\n#pragma omp parallel for schedule(bogus)\nfor (int i = 0; i < 3; i = i + 1) { }\n}",
    );
    assert!(d.msg.contains("unknown schedule kind"), "{d}");

    // Trailing garbage on a standalone directive.
    let d = diag("int main() {\n#pragma omp parallel\n{\n#pragma omp barrier now\n}\n}");
    assert!(d.msg.contains("barrier"), "{d}");
    assert_eq!(d.span.line, 4, "{d}");
}

#[test]
fn return_inside_a_critical_section_is_rejected() {
    // An orphaned section called from `main` and from a region: the
    // `return` would leave the section without its release, so it is a
    // compile error in either context, as it is in a parallel construct.
    let d = diag(
        "double count;\ndouble after;\n\
         void f(int k) {\n\
         #pragma omp critical\n\
         {\n  count = count + k;\n  return;\n}\n\
         after = after + 1.0;\n}\n\
         int main() {\nf(1);\n#pragma omp parallel\n{ f(2); }\nreturn 0;\n}",
    );
    assert!(
        d.msg.contains("`return` inside a `critical` section"),
        "{d}"
    );
    assert_eq!((d.span.line, d.span.col), (7, 3), "{d}");
    // In `main` itself, and nested in a loop of the section.
    let d = diag("int main() {\n#pragma omp critical\n{\nwhile (1) { return 1; }\n}\nreturn 0;\n}");
    assert!(
        d.msg.contains("`return` inside a `critical` section"),
        "{d}"
    );
    assert_eq!(d.span.line, 4, "{d}");
    // After the section, `return` is legal again.
    compile("int main() {\n#pragma omp critical\n{ }\nreturn 0;\n}").unwrap();
}

#[test]
fn non_canonical_worksharing_loops() {
    let d =
        diag("int main() {\n#pragma omp parallel for\nfor (int i = 0; i < 10; i = i + 2) { }\n}");
    assert!(d.msg.contains("i = i + 1"), "{d}");
    let d =
        diag("int main() {\n#pragma omp parallel for\nfor (int i = 10; i > 0; i = i + 1) { }\n}");
    assert!(d.msg.contains("i < HI"), "{d}");
}

#[test]
fn reduction_on_a_private_variable_is_rejected() {
    // `sum` is a stack variable — private by Modification 1 — so the
    // reduction cannot combine into shared memory.
    let d = diag(
        "int main() {\n\
         double sum = 0.0;\n\
         #pragma omp parallel for reduction(+:sum)\n\
         for (int i = 0; i < 10; i = i + 1) { sum = sum + i; }\n\
         return 0;\n}",
    );
    assert!(d.msg.contains("private"), "{d}");
    assert!(d.msg.contains("global scope"), "{d}");
    assert_eq!(d.span.line, 3, "{d}");
}

#[test]
fn reduction_variable_cannot_also_be_private() {
    let d = diag(
        "double s;\n\
         int main() {\n\
         #pragma omp parallel private(s) reduction(+:s)\n\
         { s = s + 1.0; }\n}",
    );
    assert!(d.msg.contains("cannot also be private"), "{d}");
    assert_eq!(d.span.line, 3, "{d}");
}

#[test]
fn shared_stack_variable_is_a_modification1_error() {
    let d = diag(
        "int main() {\n\
         double x = 1.0;\n\
         #pragma omp parallel shared(x)\n\
         { x = 2.0; }\n}",
    );
    assert!(d.msg.contains("Modification 1"), "{d}");
    assert_eq!(d.span.line, 3, "{d}");
}

#[test]
fn taskwait_outside_a_parallel_region() {
    // Directly in main.
    let d = diag("int main() {\n#pragma omp taskwait\nreturn 0;\n}");
    assert!(d.msg.contains("outside a parallel region"), "{d}");
    assert_eq!(d.span.line, 2, "{d}");

    // Through the call graph: helper() is called from sequential
    // context, so its orphaned taskwait can execute outside any region.
    let d = diag(
        "void helper() {\n\
         #pragma omp taskwait\n\
         }\n\
         int main() { helper(); return 0; }",
    );
    assert!(d.msg.contains("outside a parallel region"), "{d}");
    assert!(d.msg.contains("helper"), "{d}");
    assert_eq!(d.span.line, 2, "{d}");

    // But the same orphaned taskwait is fine when only called from
    // parallel context.
    let src = "double g;\n\
         void helper() {\n\
         #pragma omp taskwait\n\
         }\n\
         int main() {\n\
         #pragma omp parallel\n\
         {\n\
         #pragma omp task\n\
         helper();\n\
         }\n\
         return 0;\n}";
    assert!(compile(src).is_ok(), "{:?}", compile(src).err());
}

#[test]
fn worksharing_and_single_must_be_lexically_inside_parallel() {
    let d = diag("int main() {\n#pragma omp for\nfor (int i = 0; i < 3; i = i + 1) { }\n}");
    assert!(d.msg.contains("lexically inside"), "{d}");
    let d = diag("int main() {\n#pragma omp single\n{ }\n}");
    assert!(d.msg.contains("lexically inside"), "{d}");
}

#[test]
fn closely_nested_region_restrictions_are_compile_errors_not_deadlocks() {
    // single inside a work-shared loop body: thread teams execute
    // different iteration counts, so the implied barrier would deadlock.
    let d = diag(
        "int main() {\n\
         #pragma omp parallel\n\
         {\n\
         #pragma omp for\n\
         for (int i = 0; i < 5; i = i + 1) {\n\
         #pragma omp single\n\
         { }\n\
         }\n\
         }\n}",
    );
    assert!(d.msg.contains("closely nested"), "{d}");
    assert_eq!(d.span.line, 6, "{d}");

    // barrier inside a parallel-for body.
    let d = diag(
        "double s;\n\
         int main() {\n\
         #pragma omp parallel for\n\
         for (int i = 0; i < 5; i = i + 1) {\n\
         #pragma omp barrier\n\
         }\n\
         return 0;\n}",
    );
    assert!(d.msg.contains("closely nested"), "{d}");
    assert_eq!(d.span.line, 5, "{d}");

    // barrier inside single, and worksharing inside critical.
    let d = diag(
        "int main() {\n\
         #pragma omp parallel\n\
         {\n\
         #pragma omp single\n\
         {\n\
         #pragma omp barrier\n\
         }\n\
         }\n}",
    );
    assert!(d.msg.contains("closely nested"), "{d}");
    let d = diag(
        "int main() {\n\
         #pragma omp parallel\n\
         {\n\
         #pragma omp critical\n\
         {\n\
         #pragma omp for\n\
         for (int i = 0; i < 3; i = i + 1) { }\n\
         }\n\
         }\n}",
    );
    assert!(d.msg.contains("closely nested"), "{d}");

    // Orphaned barrier reached through a call from a work-shared loop
    // body — caught over the call graph, at the call site.
    let d = diag(
        "void sync() {\n\
         #pragma omp barrier\n\
         }\n\
         int main() {\n\
         #pragma omp parallel\n\
         {\n\
         #pragma omp for\n\
         for (int i = 0; i < 5; i = i + 1) { sync(); }\n\
         #pragma omp barrier\n\
         }\n\
         return 0;\n}",
    );
    assert!(d.msg.contains("contains a `barrier`"), "{d}");
    assert!(d.msg.contains("sync"), "{d}");
    assert_eq!(d.span.line, 8, "{d}");

    // The same orphaned-barrier function is fine straight from the
    // region body, where the whole team reaches it.
    let ok = "void sync() {\n\
         #pragma omp barrier\n\
         }\n\
         int main() {\n\
         #pragma omp parallel\n\
         { sync(); }\n\
         return 0;\n}";
    assert!(compile(ok).is_ok(), "{:?}", compile(ok).err());
}

#[test]
fn taskwait_inside_critical_is_a_compile_error_not_a_deadlock() {
    // The waiter would block holding the critical's lock while an
    // unfinished task may need it (and on an SMP node it pins the
    // node's protocol gate): rejected lexically...
    let d = diag(
        "int main() {\n\
         #pragma omp parallel\n\
         {\n\
         #pragma omp task\n\
         { }\n\
         #pragma omp critical\n\
         {\n\
         #pragma omp taskwait\n\
         }\n\
         }\n}",
    );
    assert!(d.msg.contains("closely nested"), "{d}");
    assert_eq!(d.span.line, 8, "{d}");

    // ...and over the call graph, at the call site inside the critical.
    let d = diag(
        "void drain() {\n\
         #pragma omp taskwait\n\
         }\n\
         int main() {\n\
         #pragma omp parallel\n\
         {\n\
         #pragma omp task\n\
         { }\n\
         #pragma omp critical\n\
         { drain(); }\n\
         }\n\
         return 0;\n}",
    );
    assert!(d.msg.contains("contains a `taskwait`"), "{d}");
    assert_eq!(d.span.line, 10, "{d}");

    // taskwait inside a task body (the canonical divide-and-conquer
    // shape) stays legal.
    let ok = "int main() {\n\
         #pragma omp parallel\n\
         {\n\
         #pragma omp task\n\
         {\n\
         #pragma omp taskwait\n\
         }\n\
         }\n\
         return 0;\n}";
    assert!(compile(ok).is_ok(), "{:?}", compile(ok).err());
}

#[test]
fn nested_parallel_is_rejected_lexically_and_over_the_call_graph() {
    let d = diag(
        "int main() {\n\
         #pragma omp parallel\n\
         {\n\
         #pragma omp parallel\n\
         { }\n\
         }\n}",
    );
    assert!(d.msg.contains("nested parallel"), "{d}");
    assert_eq!(d.span.line, 4, "{d}");

    let d = diag(
        "void inner() {\n\
         #pragma omp parallel\n\
         { }\n\
         }\n\
         int main() {\n\
         #pragma omp parallel\n\
         { inner(); }\n\
         return 0;\n}",
    );
    assert!(d.msg.contains("nested parallel"), "{d}");
}

#[test]
fn task_capture_limit_is_enforced() {
    let d = diag(
        "double g;\n\
         void work(int a, int b, int c, int d) {\n\
         #pragma omp task\n\
         g = a + b + c + d;\n\
         }\n\
         int main() {\n\
         #pragma omp parallel\n\
         {\n\
         #pragma omp task\n\
         work(1, 2, 3, 4);\n\
         }\n\
         return 0;\n}",
    );
    assert!(d.msg.contains("captures 4"), "{d}");
    assert_eq!(d.span.line, 3, "{d}");
}

#[test]
fn name_and_type_errors_are_spanned() {
    let d = diag("int main() { x = 1; }");
    assert!(d.msg.contains("unknown variable"), "{d}");
    let d = diag("int main() { frob(); }");
    assert!(d.msg.contains("unknown function"), "{d}");
    let d = diag("double a[4];\nint main() { a = 1.0; }");
    assert!(d.msg.contains("index"), "{d}");
    let d = diag("int main() { int x; int x; }");
    assert!(d.msg.contains("already declared"), "{d}");
    let d = diag("int f(int a) { return a; }\nint main() { return f(1, 2); }");
    assert!(d.msg.contains("argument"), "{d}");
    let d = diag("double n = m + 1;\ndouble m;\nint main() { return 0; }");
    assert!(d.msg.contains("before its declaration"), "{d}");
    let d = diag("int f() { return 1; }\ndouble g = f();\nint main() { return 0; }");
    assert!(d.msg.contains("global initializers"), "{d}");
    let d = diag("int main() { return sqrt(1.0, 2.0); }");
    assert!(d.msg.contains("argument"), "{d}");
}

#[test]
fn programs_without_main_are_rejected() {
    let d = diag("double x;");
    assert!(d.msg.contains("no `main`"), "{d}");
    let d = diag("int main(int argc) { return 0; }");
    assert!(d.msg.contains("no parameters"), "{d}");
}

// ----------------------------------------------------------------------
// No-panic properties
// ----------------------------------------------------------------------

// The front-end must never panic, whatever bytes it is fed; the second
// property uses a directive-flavored alphabet, which reaches much deeper
// into the pragma parser than raw bytes do.
proptest::proptest! {
    #![proptest_config(proptest::ProptestConfig { cases: 512, max_shrink_iters: 0 })]

    #[test]
    fn compile_never_panics_on_arbitrary_bytes(bytes in proptest::collection::vec(0u8..255u8, 0..200)) {
        let src = String::from_utf8_lossy(&bytes);
        let _ = compile(&src);
    }

    #[test]
    fn compile_never_panics_on_pragma_soup(picks in proptest::collection::vec(0usize..24, 0..60)) {
        const WORDS: [&str; 24] = [
            "#pragma omp ", "parallel ", "for ", "task ", "taskwait\n", "barrier\n",
            "single ", "critical ", "reduction(+:x) ", "schedule(dynamic,4) ",
            "shared(x) ", "private(x) ", "firstprivate(x) ", "\n", "{ ", "} ",
            "int main() ", "double x; ", "x = 1; ", "for (int i = 0; i < 9; i = i + 1) ",
            "(", ")", ";", "1.5e3 ",
        ];
        let src: String = picks.iter().map(|&i| WORDS[i]).collect();
        let _ = compile(&src);
    }
}

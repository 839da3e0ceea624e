//! Directive-style macros.
//!
//! The paper's compiler consumes `!$omp`/`#pragma` comments; the Rust
//! embedding expresses the same directives as macros over the runtime
//! API. By-value closure captures take the role of `firstprivate`;
//! `SharedVec`/`SharedScalar` handles are the explicitly-`shared`
//! variables (the paper's Modification 1); plain locals are `private`.

/// `!$omp parallel` … `!$omp end parallel`.
///
/// ```ignore
/// omp_parallel!(omp, |t| {
///     let tid = t.thread_num(); // private
///     /* ... */
/// });
/// ```
#[macro_export]
macro_rules! omp_parallel {
    ($env:expr, |$t:ident| $body:block) => {
        $env.parallel(move |$t: &mut $crate::OmpThread<'_>| $body)
    };
}

/// `!$omp parallel do [schedule(...)]`.
///
/// ```ignore
/// omp_parallel_for!(omp, schedule(static), i in 0..n, |t| {
///     /* body uses t and i */
/// });
/// omp_parallel_for!(omp, schedule(dynamic, 8), i in 0..n, |t| { ... });
/// ```
#[macro_export]
macro_rules! omp_parallel_for {
    ($env:expr, schedule(static), $i:ident in $range:expr, |$t:ident| $body:block) => {
        $env.parallel_for($crate::Schedule::Static, $range, move |$t, $i| $body)
    };
    ($env:expr, schedule(static, $c:expr), $i:ident in $range:expr, |$t:ident| $body:block) => {
        $env.parallel_for($crate::Schedule::StaticChunk($c), $range, move |$t, $i| {
            $body
        })
    };
    ($env:expr, schedule(dynamic, $c:expr), $i:ident in $range:expr, |$t:ident| $body:block) => {
        $env.parallel_for($crate::Schedule::Dynamic($c), $range, move |$t, $i| $body)
    };
    ($env:expr, schedule(guided, $c:expr), $i:ident in $range:expr, |$t:ident| $body:block) => {
        $env.parallel_for($crate::Schedule::Guided($c), $range, move |$t, $i| $body)
    };
    ($env:expr, $i:ident in $range:expr, |$t:ident| $body:block) => {
        $env.parallel_for($crate::Schedule::Static, $range, move |$t, $i| $body)
    };
}

/// `!$omp critical (name)` — use inside a parallel region; the thread
/// context identifier is rebound inside the section.
///
/// ```ignore
/// omp_critical!(t, "queue", {
///     /* t here is the same thread context, under the lock */
/// });
/// ```
#[macro_export]
macro_rules! omp_critical {
    ($t:ident, $name:literal, $body:block) => {
        $t.critical_named($name, |$t| $body)
    };
    ($t:ident, $body:block) => {
        $t.critical_named("<unnamed>", |$t| $body)
    };
}

/// `!$omp barrier`.
#[macro_export]
macro_rules! omp_barrier {
    ($t:expr) => {
        $t.barrier()
    };
}

/// `!$omp master` (no implied barrier).
#[macro_export]
macro_rules! omp_master {
    ($t:expr, $body:block) => {
        if $t.thread_num() == 0 $body
    };
}

/// `!$omp task` — spawn the scope's task body with the given
/// [`TaskArgs`](crate::TaskArgs); use inside an
/// [`Env::task_scope`](crate::Env::task_scope).
///
/// ```ignore
/// omp_task!(scope, TaskArgs::ab(lo as u64, hi as u64));
/// ```
#[macro_export]
macro_rules! omp_task {
    ($scope:expr, $args:expr) => {
        $scope.task($args)
    };
}

/// `!$omp taskwait` — wait until every child the current task spawned so
/// far has completed (not their descendants).
#[macro_export]
macro_rules! omp_taskwait {
    ($scope:expr) => {
        $scope.taskwait()
    };
}

/// `!$omp single` (master-executes variant, with the implied barrier).
/// Works on an [`OmpThread`](crate::OmpThread) in any parallel region and
/// on a [`TaskScope`](crate::TaskScope) during its init phase.
#[macro_export]
macro_rules! omp_single {
    ($t:ident, $body:block) => {
        $t.single(|$t| $body)
    };
}

/// The paper's proposed `sema_wait` directive.
#[macro_export]
macro_rules! omp_sema_wait {
    ($t:expr, $s:expr) => {
        $t.sema_wait($s)
    };
}

/// The paper's proposed `sema_signal` directive.
#[macro_export]
macro_rules! omp_sema_signal {
    ($t:expr, $s:expr) => {
        $t.sema_signal($s)
    };
}

/// The original `!$omp flush` (costs 2(n−1) messages; kept for the
/// ablation of the paper's Modification 2).
#[macro_export]
macro_rules! omp_flush {
    ($t:expr) => {
        $t.flush()
    };
}

#[cfg(test)]
mod tests {
    use crate::{run, OmpConfig};

    #[test]
    fn macros_compile_and_run() {
        let out = run(OmpConfig::fast_test(2), |omp| {
            let v = omp.malloc_vec::<u64>(2);
            let c = omp.malloc_scalar::<u64>(0);
            omp_parallel!(omp, |t| {
                let me = t.thread_num();
                omp_master!(t, {
                    // master-only side effect: nothing shared touched
                });
                omp_barrier!(t);
                t.write(&v, me, me as u64 + 100);
                omp_critical!(t, "ctr", {
                    let cur = c.get(t);
                    c.set(t, cur + 1);
                });
            });
            omp_parallel_for!(omp, schedule(static), i in 0..10usize, |t| {
                let _ = (i, t.thread_num());
            });
            (omp.read_slice(&v, 0..2), c.get(omp))
        });
        assert_eq!(out.result.0, vec![100, 101]);
        assert_eq!(out.result.1, 2);
    }
}
